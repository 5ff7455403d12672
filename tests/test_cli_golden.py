"""Byte identity of the CLI: every run pinned in ``tests/data/cli_golden.json``
prints the same exit code, stdout and stderr as when it was recorded.
``tests/cli_golden.py`` lists the runs and regenerates the corpus."""

import json

import pytest

import cli_golden

CORPUS = json.loads(cli_golden.CORPUS.read_text())


@pytest.fixture(scope="module")
def files_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_golden")
    cli_golden.write_files(CORPUS["files"], directory)
    return directory


@pytest.mark.parametrize("case", CORPUS["runs"], ids=lambda c: c["id"])
def test_cli_run_is_pinned(case, files_dir):
    assert cli_golden.run(case["argv"], files_dir) == (
        case["exit"], case["stdout"], case["stderr"])

