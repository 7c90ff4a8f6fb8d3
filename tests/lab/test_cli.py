"""The lab experiment commands offer only the flags they read.

A flag a command accepts and then ignores (``repro isp --save out.json``
writing nothing) looks like a working option; argparse must refuse it
instead, with exit status 2.
"""

import pytest

from repro.__main__ import build_parser

IGNORED = [
    ("compression", "--save", "out.json"),
    ("isp", "--save", "out.json"),
    ("raw-vs-jpeg", "--save", "out.json"),
    ("stability", "--save", "out.json"),
    ("stability", "--workers", "2"),
    ("stability", "--cache-dir", "cache"),
]


@pytest.mark.parametrize("command, flag, value", IGNORED)
def test_unread_flags_are_refused(command, flag, value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args([command, flag, value])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compression", "isp", "raw-vs-jpeg"])
def test_capture_commands_keep_workers_and_cache(command):
    args = build_parser().parse_args(
        [command, "--workers", "2", "--cache-dir", "cache", "--per-class", "1"]
    )
    assert (args.workers, args.cache_dir, args.per_class) == (2, "cache", 1)

