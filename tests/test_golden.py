import golden


def test_golden_corpus_is_the_command_list():
    # golden.txt holds exactly the commands golden.py lists, in order
    assert [argv for argv, _ in golden.read()] == golden.commands()


def test_golden_corpus_unchanged():
    # exit code, stdout and stderr of every command as recorded
    changed = [text for argv, text in golden.read() if golden.line(argv, golden.run(argv)) != text]
    assert not changed, changed
