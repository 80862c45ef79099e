import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import gfi
from conftest import corrupt_trie_rows, relabelled_trie_index
from gfi.cli import main
from gfi.grammar import Grammar
from gfi.index import build_index, save_index, save_index_file
from gfi.oracle import naive_count


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_build_and_stats(tmp_path, capsys):
    text_file = tmp_path / "t.txt"
    text_file.write_bytes(b"bacabacaacbcbc")
    idx_file = tmp_path / "t.gfi"
    status, out, _ = run(
        capsys, "build", "-i", str(text_file), "-o", str(idx_file), "--lambda", "4", "--baseline"
    )
    assert status == 0
    header, row = out.strip().splitlines()
    assert header == "name,n,sigma,sigma1,r0,r1,bytes"
    fields = row.split(",")
    assert fields[1:6] == ["14", "3", "5", "9", "7"]

    status, out, _ = run(capsys, "stats", "-x", str(idx_file))
    assert status == 0
    stats = dict(line.split(",") for line in out.strip().splitlines()[1:])
    assert stats["lambda"] == "4"
    assert stats["sigma1"] == "5"
    assert stats["r1"] == "7"
    assert stats["r0"] == "9"
    section_bytes = [int(v) for k, v in stats.items() if k.startswith("bytes_") and k != "bytes_total"]
    assert int(stats["bytes_total"]) == sum(section_bytes)
    assert int(stats["bytes_total"]) == len((tmp_path / "t.gfi").read_bytes())


def test_build_rejects_lambda_above_255(tmp_path, capsys):
    text_file = tmp_path / "t.txt"
    text_file.write_bytes(b"bacabacaacbcbc")
    idx_file = tmp_path / "t.gfi"
    status, _, err = run(
        capsys, "build", "-i", str(text_file), "-o", str(idx_file), "--lambda", "256"
    )
    assert status == 2
    assert err.startswith("error:")
    assert not idx_file.exists()


def test_count_command(tmp_path, capsys):
    text_file = tmp_path / "t.txt"
    text_file.write_bytes(b"bacabacaacbcbc")
    idx_file = tmp_path / "t.gfi"
    run(capsys, "build", "-i", str(text_file), "-o", str(idx_file), "--lambda", "4")
    pat_file = tmp_path / "p.txt"
    pat_file.write_bytes(b"cabaca\nca\n\nzz\n")
    status, out, err = run(capsys, "count", "-x", str(idx_file), "-p", str(pat_file))
    assert out.splitlines() == ["1", "2", "0"]
    assert "line 3" in err
    assert status == 1


def test_gen_and_bench(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    status, out, _ = run(
        capsys, "gen", "random", "--sigma", "4", "--length", "3000", "--seed", "5", "-o", str(corpus)
    )
    assert status == 0
    data = corpus.read_bytes()
    assert len(data) == 3000 and len(set(data)) == 4

    idx_file = tmp_path / "c.gfi"
    run(capsys, "build", "-i", str(corpus), "-o", str(idx_file), "--lambda", "3")
    status, out, _ = run(
        capsys,
        "bench",
        "-x", str(idx_file),
        "--text", str(corpus),
        "--lengths", "3..5",
        "--samples", "8",
        "--seed", "1",
    )
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "length,mean_time_per_char,total_rank_calls,rank_calls_per_char"
    assert len(lines) == 4
    assert [row.split(",")[0] for row in lines[1:]] == ["8", "16", "32"]
    for row in lines[1:]:
        assert float(row.split(",")[3]) > 0


def test_gen_artificial_cli(tmp_path, capsys):
    out_file = tmp_path / "a.txt"
    status, out, _ = run(
        capsys, "gen", "artificial", "--mutation", "0", "--seed", "2", "-o", str(out_file)
    )
    assert status == 0
    data = out_file.read_bytes()
    assert len(data) == 101 * 5 * 2**10
    assert set(data) <= set(b"ACGT")


@pytest.mark.parametrize("mutation", ["-5", "150", "nan", "inf"])
def test_gen_artificial_rejects_mutation_outside_0_to_100(tmp_path, capsys, mutation):
    out_file = tmp_path / "a.txt"
    status, out, err = run(
        capsys, "gen", "artificial", "--mutation", mutation, "-o", str(out_file)
    )
    assert status == 2
    assert err.startswith("error:") and "--mutation" in err
    assert "Traceback" not in err and not out
    assert not out_file.exists()


def test_bench_deterministic_patterns(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    run(capsys, "gen", "random", "--sigma", "3", "--length", "2000", "--seed", "9", "-o", str(corpus))
    idx_file = tmp_path / "c.gfi"
    run(capsys, "build", "-i", str(corpus), "-o", str(idx_file), "--lambda", "2")
    _, out1, _ = run(capsys, "bench", "-x", str(idx_file), "--text", str(corpus),
                     "--lengths", "4..4", "--samples", "16", "--seed", "3")
    _, out2, _ = run(capsys, "bench", "-x", str(idx_file), "--text", str(corpus),
                     "--lengths", "4..4", "--samples", "16", "--seed", "3")
    calls1 = out1.strip().splitlines()[1].split(",")[2]
    calls2 = out2.strip().splitlines()[1].split(",")[2]
    assert calls1 == calls2


def test_bench_stops_at_a_length_beyond_the_text(tmp_path, capsys):
    """A text file's trailing NUL is not text: 15 characters and a NUL hold
    patterns of length 2^3 but not 2^4."""
    text = b"bacabacaacbcbca"
    corpus = tmp_path / "c.txt"
    corpus.write_bytes(text + b"\x00")
    idx_file = tmp_path / "c.gfi"
    save_index_file(build_index(text, 3), str(idx_file))
    status, out, err = run(capsys, "bench", "-x", str(idx_file), "--text", str(corpus),
                           "--lengths", "3..4", "--samples", "4")
    assert status == 1
    assert [row.split(",")[0] for row in out.strip().splitlines()[1:]] == ["8"]
    assert err == "length 2^4 exceeds the text\n"


def test_bench_refuses_a_huge_length_before_building_it(tmp_path, capsys):
    """2^40000000000 is a 5 GB integer: the length is compared with the
    text through its exponent, so the refusal comes at once."""
    corpus = tmp_path / "c.txt"
    corpus.write_bytes(b"bacabacaacbcbca\x00")
    idx_file = tmp_path / "c.gfi"
    save_index_file(build_index(b"bacabacaacbcbca", 3), str(idx_file))
    status, out, err = run(capsys, "bench", "-x", str(idx_file), "--text", str(corpus),
                           "--lengths", "40000000000..40000000000", "--samples", "4")
    assert status == 1
    assert out.strip().splitlines()[1:] == []
    assert err == "length 2^40000000000 exceeds the text\n"


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_bench_rejects_samples_below_one(tmp_path, capsys, monkeypatch, samples):
    def no_loading(*args):
        raise AssertionError("loaded the index before checking --samples")

    monkeypatch.setattr("gfi.index.load_index_file", no_loading)
    corpus = tmp_path / "c.txt"
    corpus.write_bytes(b"bacabacaacbcbc")
    status, out, err = run(capsys, "bench", "-x", str(tmp_path / "c.gfi"), "--text", str(corpus),
                           "--lengths", "2..3", "--samples", samples)
    assert status == 2 and out == ""
    assert err.startswith("error:") and "--samples" in err


def test_bench_refuses_samples_past_the_bound_under_a_memory_cap(tmp_path):
    """10^11 samples would take any machine's memory: under a 2 GB address
    space cap the refusal still comes at once, before a pattern is drawn."""
    corpus = tmp_path / "c.txt"
    corpus.write_bytes(b"bacabacaacbcbc")
    idx_file = tmp_path / "c.gfi"
    save_index_file(build_index(b"bacabacaacbcbc", 3), str(idx_file))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))

    proc = subprocess.run(
        [sys.executable, "-m", "gfi.cli", "bench", "-x", str(idx_file), "--text", str(corpus),
         "--lengths", "2..3", "--samples", "100000000000"],
        capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(gfi.__file__))},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "--samples" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "lengths", ["5", "5..a", "7..3", "..4", pytest.param("0.." + "9" * 5000, id="5000_digits")]
)
def test_bench_rejects_malformed_lengths(tmp_path, capsys, lengths):
    # The index path does not exist: the range must be rejected before any file is read.
    # A bound of 5,000 digits is past what Python converts to an int.
    status, out, err = run(capsys, "bench", "-x", str(tmp_path / "absent.gfi"),
                           "--text", str(tmp_path / "absent.txt"), "--lengths", lengths)
    assert status == 2 and out == ""
    assert err.startswith("error:") and "--lengths" in err


def test_missing_files_are_errors(tmp_path, capsys):
    status, _, err = run(capsys, "stats", "-x", str(tmp_path / "nope.gfi"))
    assert status == 2
    assert "error" in err


def test_count_rejects_patched_lambda(tmp_path, capsys):
    text_file = tmp_path / "t.txt"
    text_file.write_bytes(b"bacabacaacbcbc" * 3)
    idx_file = tmp_path / "t.gfi"
    run(capsys, "build", "-i", str(text_file), "-o", str(idx_file), "--lambda", "4")
    pat_file = tmp_path / "p.txt"
    pat_file.write_bytes(b"cabaca\n")
    blob = bytearray(idx_file.read_bytes())
    for lam in (0, 2, 8):
        blob[5] = lam
        idx_file.write_bytes(bytes(blob))
        status, out, err = run(capsys, "count", "-x", str(idx_file), "-p", str(pat_file))
        assert status == 2 and out == ""
        assert "error" in err


def test_count_rejects_truncated_or_padded_index(tmp_path, capsys):
    text_file = tmp_path / "t.txt"
    text_file.write_bytes(b"bacabacaacbcbc" * 5)
    idx_file = tmp_path / "t.gfi"
    run(capsys, "build", "-i", str(text_file), "-o", str(idx_file), "--lambda", "4", "--baseline")
    pat_file = tmp_path / "p.txt"
    pat_file.write_bytes(b"cabaca\n")
    blob = idx_file.read_bytes()
    for damaged in (blob[:-1], blob[: len(blob) // 2], blob + b"\x00"):
        idx_file.write_bytes(damaged)
        status, out, err = run(capsys, "count", "-x", str(idx_file), "-p", str(pat_file))
        assert status == 2 and out == ""
        assert "error" in err


@pytest.mark.parametrize("damage", ["swapped", "duplicated"])
def test_count_rejects_corrupt_trie_section(tmp_path, capsys, damage):
    text_file = tmp_path / "t.txt"
    text_file.write_bytes(b"bacabacaacbcbc" * 5)
    idx_file = tmp_path / "t.gfi"
    run(capsys, "build", "-i", str(text_file), "-o", str(idx_file), "--lambda", "4", "--baseline")
    pat_file = tmp_path / "p.txt"
    pat_file.write_bytes(b"a\nb\n")
    status, out, _ = run(capsys, "count", "-x", str(idx_file), "-p", str(pat_file))
    assert status == 0 and out.splitlines() == ["25", "20"]
    idx_file.write_bytes(corrupt_trie_rows(idx_file.read_bytes(), damage))
    status, out, err = run(capsys, "count", "-x", str(idx_file), "-p", str(pat_file))
    assert status == 2 and out == ""
    assert "error" in err


@pytest.mark.parametrize("damage", ["root_edge", "deep_edge", "swapped_counts"])
def test_count_rejects_wrong_trie_edges_and_counts(tmp_path, capsys, damage):
    idx_file = tmp_path / "t.gfi"
    idx_file.write_bytes(relabelled_trie_index(b"bacabacaacbcbc" * 5, 4, damage))
    pat_file = tmp_path / "p.txt"
    pat_file.write_bytes(b"a\nc\n")
    status, out, err = run(capsys, "count", "-x", str(idx_file), "-p", str(pat_file))
    assert status == 2 and out == ""
    assert err.startswith("error: corrupt index file:") and "Traceback" not in err


@pytest.mark.parametrize("damage", ["flipped_byte", "swapped_rules"])
def test_count_rejects_damaged_index(tmp_path, capsys, damage):
    """A flipped byte fails the checksum; swapped rules, saved with a valid
    checksum, fail the rule-order check.  Either way: exit 2, no traceback."""
    text = b"bacabacaacbcbc" * 5
    idx = build_index(text, 4, with_baseline=True)
    if damage == "swapped_rules":
        rhs = idx.grammar.rhs
        idx.grammar = Grammar(lam=4, rhs=[rhs[0], rhs[2], rhs[1]] + rhs[3:])
    blob = bytearray(save_index(idx))
    if damage == "flipped_byte":
        blob[len(blob) // 2] ^= 0xFF
    idx_file = tmp_path / "t.gfi"
    idx_file.write_bytes(bytes(blob))
    pat_file = tmp_path / "p.txt"
    pat_file.write_bytes(b"abac\n")
    status, out, err = run(capsys, "count", "-x", str(idx_file), "-p", str(pat_file))
    assert status == 2 and out == ""
    assert err.startswith("error: corrupt index file:") and "Traceback" not in err


def test_gen_random_rejects_sigma_above_length(tmp_path, capsys):
    out_file = tmp_path / "r.txt"
    for sigma, length in (("5", "3"), ("0", "3")):
        status, out, err = run(
            capsys, "gen", "random", "--sigma", sigma, "--length", length, "-o", str(out_file)
        )
        assert status == 2 and out == ""
        assert err.startswith("error:")
    assert not out_file.exists()


def test_gen_random_full_byte_alphabet_in_short_text(tmp_path, capsys):
    out_file = tmp_path / "r.txt"
    status, out, _ = run(
        capsys, "gen", "random", "--sigma", "255", "--length", "300", "-o", str(out_file)
    )
    assert status == 0 and out == "%s,300\n" % out_file
    assert set(out_file.read_bytes()) == set(range(1, 256))


def test_gen_random_rejects_sigma_above_255(tmp_path, capsys, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before checking sigma")

    monkeypatch.setattr("gfi.oracle.gen_random_text", no_sampling)
    out_file = tmp_path / "r.txt"
    status, out, err = run(
        capsys, "gen", "random", "--sigma", "256", "--length", "2000", "-o", str(out_file)
    )
    assert status == 2 and out == ""
    assert err.startswith("error:") and "255" in err
    assert not out_file.exists()


def test_count_matches_library(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    run(capsys, "gen", "random", "--sigma", "3", "--length", "500", "--seed", "11", "-o", str(corpus))
    idx_file = tmp_path / "c.gfi"
    run(capsys, "build", "-i", str(corpus), "-o", str(idx_file), "--lambda", "4")
    raw = corpus.read_bytes()
    pats = [raw[17 : 17 + 9], raw[100 : 100 + 30], b"abc"]
    pat_file = tmp_path / "p.txt"
    pat_file.write_bytes(b"\n".join(pats) + b"\n")
    status, out, _ = run(capsys, "count", "-x", str(idx_file), "-p", str(pat_file))
    assert status == 0
    t = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    got = [int(x) for x in out.splitlines()]
    want = [
        naive_count(t, np.frombuffer(p, dtype=np.uint8).astype(np.int64)) for p in pats
    ]
    assert got == want


STATS = """key,value
lambda,4
n,14
sigma,3
sigma1,5
r1,7
r0,9
trie_nodes,22
trie_levels,3
bytes_header,6
bytes_alphabet,7
bytes_grammar,19
bytes_level1_bwt,20
bytes_short_trie,63
bytes_baseline,%d
bytes_checksum,4
bytes_total,%d
"""


@pytest.mark.parametrize("baseline", [True, False], ids=["baseline", "no_baseline"])
def test_stats_lines_and_no_baseline_build(tmp_path, capsys, rlfm_inits, baseline):
    """``gfi stats`` prints these lines, with r0 only for an index built with
    --baseline, which it reads from the stored runs: it builds no RLFMIndex
    beyond the level-1 one that loading builds, and neither does ``gfi count``."""
    text_file = tmp_path / "t.txt"
    text_file.write_bytes(b"bacabacaacbcbc")
    idx_file = tmp_path / "t.gfi"
    flags = ["--baseline"] if baseline else []
    run(capsys, "build", "-i", str(text_file), "-o", str(idx_file), "--lambda", "4", *flags)
    rlfm_inits.clear()  # the build's own
    pat_file = tmp_path / "p.txt"
    pat_file.write_bytes(b"cabaca\nca\n")
    status, out, _ = run(capsys, "stats", "-x", str(idx_file))
    assert status == 0 and len(rlfm_inits) == 1
    want = STATS % ((25, 144) if baseline else (1, 120))
    if not baseline:
        want = want.replace("r0,9\n", "")
    assert out == want
    status, out, _ = run(capsys, "count", "-x", str(idx_file), "-p", str(pat_file))
    assert status == 0 and out.splitlines() == ["1", "2"]
    assert len(rlfm_inits) == 2  # one more load
