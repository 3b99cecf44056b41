import hashlib
import os
import subprocess
import sys

import pytest

from idealspaces import SuiteRecord
from idealspaces.cli import main


def run_cli(*argv):
    return main(list(argv))


class TestExitCodes:
    def test_ring_ok(self, capsys):
        assert run_cli("ring", "--ring", "Z12") == 0
        assert "units" in capsys.readouterr().out

    def test_parse_error_is_2(self, capsys):
        assert run_cli("ring", "--ring", "Zx") == 2

    def test_unknown_kind_is_2(self, capsys):
        assert run_cli("spectrum", "--ring", "Z4", "--kind", "bogus") == 2

    def test_cap_exceeded_is_3(self, capsys):
        assert run_cli("ring", "--ring", "Z100") == 3

    def test_verify_example_reproduction_exits_0(self, capsys):
        assert run_cli("verify", "--ring", "Z2xZ2xZ2", "--kind", "min",
                       "--check", "T03") == 0

    def test_verify_example_form_failure_exits_0(self, capsys):
        # T24 is example-form: its designed failures do not flip the exit code
        assert run_cli("verify", "--ring", "Z36", "--kind", "prp",
                       "--check", "T24") == 0

    def test_verify_theorem_failure_exits_1(self, capsys):
        assert run_cli("verify", "--ring", "Z12", "--kind", "min",
                       "--check", "T08") == 1

    def test_unknown_check_is_2(self, capsys):
        assert run_cli("verify", "--ring", "Z4", "--check", "T99") == 2

    def test_max_ideals_override_is_3(self, capsys):
        assert run_cli("ideals", "--ring", "Z12", "--max-ideals", "2") == 3

    def test_max_closed_sets_override_is_3(self, capsys):
        assert run_cli("topology", "--ring", "Z6xZ6", "--kind", "prp",
                       "--max-closed-sets", "10") == 3

    @pytest.mark.parametrize("verb", ["ring", "ideals", "spectrum", "topology"])
    def test_format_is_a_usage_error_where_nothing_reads_it(self, verb, capsys):
        # only verify and search print json
        with pytest.raises(SystemExit) as exc:
            run_cli(verb, "--ring", "Z4", "--format", "json")
        assert exc.value.code == 2


class TestOutputs:
    def test_topology_props(self, capsys):
        assert run_cli("topology", "--ring", "Z4", "--kind", "prp",
                       "--props", "t0,t1,sober,connected") == 0
        out = capsys.readouterr().out
        assert "t0            holds" in out
        assert "t1            fails" in out
        assert "sober         holds" in out
        assert "connected     holds" in out

    def test_json_round_trip(self, tmp_path):
        out_file = tmp_path / "report.jsonl"
        assert run_cli("verify", "--ring", "Z12", "--kind", "spc",
                       "--check", "T03", "--format", "json",
                       "--out", str(out_file)) == 0
        lines = out_file.read_text(encoding="utf-8").strip().splitlines()
        records = [SuiteRecord.from_json(ln) for ln in lines]
        assert records and records[0].id == "T03"
        assert [r.to_json() for r in records] == lines

    def test_ascii_rendering(self, capsys):
        assert run_cli("ideals", "--ring", "Z12", "--ascii") == 0
        out = capsys.readouterr().out
        assert "<2>" in out and "⟨" not in out

    def test_unicode_rendering(self, capsys):
        assert run_cli("ideals", "--ring", "Z12") == 0
        assert "⟨2⟩" in capsys.readouterr().out

    def test_spectrum_listing(self, capsys):
        assert run_cli("spectrum", "--ring", "Z36", "--kind", "prp") == 0
        out = capsys.readouterr().out
        assert "meet inclusion: fails" in out

    def test_search(self, capsys):
        assert run_cli("search", "--check", "T03", "--family", "zmod:2..12",
                       "--kind", "prp") == 0
        assert "Z12" in capsys.readouterr().out


def _run_subprocess(seed, extra=()):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    return subprocess.run(
        [sys.executable, "-m", "idealspaces", "verify", "--ring", "Z12",
         "--ring", "Z2xZ2xZ2", "--check", "T03", "--check", "T10",
         "--format", "json", *extra],
        capture_output=True, env=env, timeout=600)


def test_byte_identical_across_hash_seeds():
    a = _run_subprocess(1)
    b = _run_subprocess(2)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout and a.stdout


# sha256 and length of the default report's stdout; see the test's docstring
DEFAULT_REPORT_SHA256 = "dc581f5f378c803b3828147328e96329b875904c0c733be16427ea59c553eedf"
DEFAULT_REPORT_BYTES = 855_323


def test_default_report_matches_its_golden_digest():
    """Every status, witness and note of the default suite, byte for byte.

    A change that alters a verdict on purpose updates both constants and says
    why in CHANGES.md.  Regenerate them from the repository root with

        PYTHONPATH=src python -m idealspaces verify --format json > report.json
        wc -c report.json; sha256sum report.json
    """
    out = subprocess.run([sys.executable, "-m", "idealspaces", "verify", "--format", "json"],
                         capture_output=True, timeout=600)
    assert len(out.stdout) == DEFAULT_REPORT_BYTES
    assert hashlib.sha256(out.stdout).hexdigest() == DEFAULT_REPORT_SHA256


# sha256, length and exit status of one ring's report, for every ring of the
# ladder: a deep ring (64 elements, 7 ideals), two wide ones, Z60 and
# Z4xZ4xZ4.  The Z4xZ4xZ4 and Z2xZ2xZ2xZ2xZ2 reports hash to the digests that
# tests/test_reductions.py::TestRaisedCaps certifies against the closed-family
# scans.  The last two entries are regression pins taken from this tree alone,
# not certified by any scan: a 47-point spectrum and the 63-point Z2^6.
RING_REPORTS = {
    "Z64": ("c6ce40e23ab577c19b7cec7809714ecc72af54de40249a0f768ce6ff528ad9c1", 93_055, 1),
    "Z60": ("7a986257c2b6016a9ad7b6483dba1506b265487d98968c1a1c05cae088bdf385", 99_327, 1),
    "Z4xZ4xZ4": ("e3d8ea822c32cc12fb162bcdf77a60534a71de9a09e861069a589dc7708b827c",
                 104_932, 1),
    "Z2xZ2xZ2xZ2": ("c0a35305e56aa26dbe96579ae201029694ea221707cc1667b8028ba133751ea4",
                    100_730, 1),
    "Z2xZ2xZ2xZ2xZ2": ("e4bbb345f27067b3ed7cd0c12378a836975f52cbf9f28309409a56fc7ffa3ea8",
                       105_285, 1),
    "Z2xZ2xZ2xZ2xZ4": ("0f1e93fe992f92e1ab4ed291e86dd44824a36794e1287720e7f327e2c41958c7",
                       109_457, 1),
    "Z2xZ2xZ2xZ2xZ2xZ2": ("f6e980be3ee7e160e6c89cfec6fa71959672eee500f348620b1a6df92f7767ba",
                          114_313, 1),
}


@pytest.mark.parametrize("expr", sorted(RING_REPORTS))
def test_ring_report_matches_its_golden_digest(expr):
    """Every status, witness and note of one ring's report, byte for byte.

    A change that alters a verdict on purpose updates the entry and says why
    in CHANGES.md.  Regenerate it from the repository root with

        PYTHONPATH=src python -m idealspaces verify --ring EXPR --format json > report.json
        echo $?; wc -c report.json; sha256sum report.json
    """
    out = subprocess.run([sys.executable, "-m", "idealspaces", "verify", "--ring", expr,
                          "--format", "json"], capture_output=True, timeout=600)
    digest, size, status = RING_REPORTS[expr]
    assert (len(out.stdout), out.returncode) == (size, status)
    assert hashlib.sha256(out.stdout).hexdigest() == digest
