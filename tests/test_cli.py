"""Command-line entry points, run in process through main(argv)."""

import time
import tracemalloc

import pytest

from ncplift.cli import main
from ncplift.dtree import parse_tree
from ncplift.f2 import BitVector, parse_vector
from ncplift.instance import brute_force_nearest, read_syndrome_instance

UNSAT = "ncpsd v1\n2 2 1 1 1\n11\n11\n10\n"
# Identity system, all-ones target, k=1, alpha=3: far (the only
# solution has weight 6), but at ell * alpha * k = 6 the error gate plus
# tolerance is -1/3, so the thresholds are vacuous.
VACUOUS = "ncpsd v1\n6 6 1 3 1\n100000\n010000\n001000\n000100\n000010\n000001\n111111\n"
# n=14, m=12, k=2, alpha=3 (gate plus tolerance 1/12); no vector of
# weight <= 6 reaches the target (checked in the test).
FAR = (
    "ncpsd v1\n12 14 2 3 1\n"
    "00110100011100\n00110011111011\n01000111111100\n11011010111010\n"
    "11001101101101\n01101011101100\n01101011100001\n01111110000110\n"
    "01100110101000\n11011100010111\n11110011110010\n11100000100111\n"
    "000110010011\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_planted(tmp_path, capsys, n=14, m=10, k=2, seed=7, alpha=None, name="inst"):
    out = tmp_path / name
    argv = [
        "gen", "--n", str(n), "--m", str(m), "--k", str(k),
        "--seed", str(seed), "--out", str(out),
    ]
    if alpha is not None:
        argv += ["--alpha", alpha]
    code, _, err = run(capsys, *argv)
    assert code == 0
    assert "command=gen" in err
    return out


# ---------------------------------------------------------------- gen


def test_gen_is_deterministic(tmp_path, capsys):
    a = gen_planted(tmp_path, capsys, name="a", seed=42, n=8, m=5, k=1)
    b = gen_planted(tmp_path, capsys, name="b", seed=42, n=8, m=5, k=1)
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.planted").read_bytes() == (tmp_path / "b.planted").read_bytes()
    c = gen_planted(tmp_path, capsys, name="c", seed=43, n=8, m=5, k=1)
    assert a.read_bytes() != c.read_bytes()


def test_gen_sidecar_verifies(tmp_path, capsys):
    out = gen_planted(tmp_path, capsys, n=10, m=6, k=2, seed=3)
    code, stdout, _ = run(
        capsys, "verify", str(out), str(out) + ".planted", "--k-max", "2"
    )
    assert code == 0
    assert stdout.strip() == "OK"


def test_gen_weight_zero_target_is_zero(tmp_path, capsys):
    out = gen_planted(tmp_path, capsys, n=8, m=4, k=0, seed=5)
    inst = read_syndrome_instance(out.read_text())
    assert inst.t.mask == 0
    planted = parse_vector((tmp_path / "inst.planted").read_text())
    assert planted == BitVector.zeros(8)


def test_gen_alpha_is_stamped(tmp_path, capsys):
    out = gen_planted(tmp_path, capsys, alpha="3", name="stamped")
    assert out.read_text().splitlines()[1].endswith(" 3 1")


def test_gen_rejects_bad_shape(tmp_path, capsys):
    code, _, err = run(
        capsys, "gen", "--n", "4", "--m", "9", "--k", "1",
        "--seed", "0", "--out", str(tmp_path / "bad"),
    )
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------- solve-exact


def test_solve_exact_finds_planted_weight(tmp_path, capsys):
    out = gen_planted(tmp_path, capsys, n=8, m=5, k=1, seed=42)
    code, stdout, _ = run(capsys, "solve-exact", str(out))
    assert code == 0
    got = stdout.strip()
    sol = tmp_path / "sol"
    sol.write_text(f"1 8\n{got}\n")
    code, stdout, _ = run(capsys, "verify", str(out), str(sol), "--k-max", "1")
    assert code == 0
    assert stdout.strip() == "OK"


def test_solve_exact_none_within_cap(tmp_path, capsys):
    path = tmp_path / "far"
    path.write_text(FAR)
    code, stdout, _ = run(capsys, "solve-exact", str(path), "--k-max", "3")
    assert code == 3
    assert stdout.strip() == "NONE"


def test_negative_sparsity_cap_is_input_error(tmp_path, capsys):
    # The README instance with its planted vector: a negative cap must
    # not print NONE (exit 3) or INVALID (exit 1).
    out = gen_planted(tmp_path, capsys, n=14, m=10, k=2, seed=7)
    for argv in (("solve-exact", str(out)), ("verify", str(out), str(out) + ".planted")):
        code, stdout, err = run(capsys, *argv, "--k-max", "-1")
        assert code == 2
        assert stdout == ""
        assert "outcome=error" in err
        assert "sparsity cap must be >= 0" in err


def test_solve_exact_refuses_a_search_that_cannot_finish(tmp_path, capsys):
    # Both the meet-in-the-middle estimate and the 2**200-element coset
    # walk are far past the brute-force cap: exit 2 naming both, at once.
    out = gen_planted(tmp_path, capsys, n=400, m=200, k=5, seed=1)
    code, stdout, err = run(capsys, "solve-exact", str(out), "--k-max", "40")
    assert code == 2
    assert stdout == ""
    assert "outcome=error" in err
    assert "meeting in the middle takes about 2**" in err
    assert "coset walk 1 x 2**200" in err


# ---------------------------------------------------------------- solve-reduce


def test_solve_reduce_round_trip(tmp_path, capsys):
    out = gen_planted(tmp_path, capsys, n=14, m=10, k=2, seed=7)
    code, stdout, err = run(
        capsys, "solve-reduce", str(out),
        "--ell", "2", "--seed", "7",
    )
    assert code == 0
    solution = stdout.strip()
    assert solution.count("1") <= 6  # 3 * k
    sol = tmp_path / "sol"
    sol.write_text(f"1 14\n{solution}\n")
    code, stdout, _ = run(capsys, "verify", str(out), str(sol), "--k-max", "6")
    assert code == 0
    assert stdout.strip() == "OK"


def test_solve_reduce_has_no_learner_option(tmp_path, capsys):
    # The exhaustive learner is the only one, so there is nothing to
    # choose: the old flag is a usage error.
    out = gen_planted(tmp_path, capsys, n=14, m=10, k=2, seed=7)
    code, stdout, err = run(capsys, "solve-reduce", str(out), "--learner", "exhaustive")
    assert code == 2
    assert stdout == ""
    assert "unrecognized arguments: --learner exhaustive" in err


@pytest.mark.parametrize("command", ["solve-reduce", "decide"])
def test_reduction_has_no_prune_option(tmp_path, capsys, command):
    # The prune constant is fixed (reduction.PRUNE_CONSTANT), so the old
    # flag is a usage error.
    out = gen_planted(tmp_path, capsys, n=14, m=10, k=2, seed=7)
    code, stdout, err = run(capsys, command, str(out), "--prune-c", "3")
    assert code == 2
    assert stdout == ""
    assert "unrecognized arguments: --prune-c 3" in err


def test_solve_reduce_past_span_enumeration_cap(tmp_path, capsys):
    # m = 24 rows: a span of dimension 24, beyond exhaustive enumeration.
    out = gen_planted(tmp_path, capsys, n=32, m=24, k=2, seed=1)
    code, stdout, _ = run(capsys, "solve-reduce", str(out))
    assert code == 0
    sol = tmp_path / "sol"
    sol.write_text(f"1 32\n{stdout.strip()}\n")
    code, stdout, _ = run(capsys, "verify", str(out), str(sol), "--k-max", "6")
    assert code == 0
    assert stdout.strip() == "OK"


@pytest.mark.parametrize(
    "command, flags, bound",
    [
        ("solve-reduce", ("--ell", "9"), "TREE_MAX_DEPTH"),
        ("solve-reduce", ("--samples", "1000000000000"), "SAMPLE_MAX_BYTES"),
        ("decide", ("--samples", "1000000000000"), "SAMPLE_MAX_BYTES"),
        ("decide", ("--ell", "1000000000000"), "SAMPLE_MAX_BYTES"),
        ("decide", ("--ell", "100"), "TREE_MAX_DEPTH"),
    ],
)
def test_work_past_the_bounds_is_input_error(tmp_path, capsys, command, flags, bound):
    # On the README demo (k = 2), ell = 9 or 100 lets the learner build
    # a parity tree of depth 18 or 200, 2**18 or 2**200 leaves, and
    # 10**12 samples or a 10**12-wide block cannot be packed.  All are
    # refused at once, before anything of their size is allocated.
    out = gen_planted(tmp_path, capsys, alpha="3")
    tracemalloc.start()
    try:
        started = time.monotonic()
        code, stdout, err = run(capsys, command, str(out), *flags)
        elapsed = time.monotonic() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert stdout == ""
    assert "outcome=error" in err
    assert bound in err
    assert elapsed < 1.0
    assert peak < 2**20


def test_solve_reduce_at_depth_fourteen(tmp_path, capsys):
    # k = 7 at ell = 2: the learner's parity tree has depth 14 and
    # extraction reads its 2**14 path subsets, within TREE_MAX_DEPTH.
    out = gen_planted(tmp_path, capsys, n=48, m=36, k=7, seed=1)
    started = time.monotonic()
    code, stdout, _ = run(capsys, "solve-reduce", str(out), "--ell", "2")
    assert time.monotonic() - started < 10.0
    assert code == 0
    sol = tmp_path / "sol"
    sol.write_text(f"1 48\n{stdout.strip()}\n")
    code, stdout, _ = run(capsys, "verify", str(out), str(sol), "--k-max", "21")
    assert code == 0
    assert stdout.strip() == "OK"


@pytest.mark.parametrize(
    "command, shape, flags, refusal",
    [
        # An exact-fit search over 400 columns up to size 6, with a
        # kernel of dimension >= 100; alpha = 3 clears decide's gate.
        pytest.param(
            "decide", (200, 100, 3, "3"), (), "exact search too large",
            id="decide-exact-fit",
        ),
        ("solve-reduce", (200, 100, 3, None), (), "exact search too large"),
    ],
)
def test_learner_search_past_the_bound_is_input_error(
    tmp_path, capsys, command, shape, flags, refusal
):
    n, m, k, alpha = shape
    path = gen_planted(tmp_path, capsys, n=n, m=m, k=k, seed=1, alpha=alpha)
    started = time.monotonic()
    code, stdout, err = run(capsys, command, str(path), *flags)
    assert time.monotonic() - started < 5.0
    assert code == 2
    assert stdout == ""
    assert "outcome=error" in err
    assert refusal in err


def test_solve_reduce_is_deterministic(tmp_path, capsys):
    out = gen_planted(tmp_path, capsys, n=12, m=8, k=2, seed=9)
    runs = []
    for _ in range(2):
        code, stdout, _ = run(
            capsys, "solve-reduce", str(out), "--seed", "11"
        )
        assert code == 0
        runs.append(stdout)
    assert runs[0] == runs[1]


def test_solve_reduce_fail_exit(tmp_path, capsys):
    path = tmp_path / "unsat"
    path.write_text(UNSAT)
    code, stdout, err = run(capsys, "solve-reduce", str(path))
    assert code == 4
    assert stdout.strip() == "FAIL"
    assert "failure:unsatisfiable" in err


def test_solve_reduce_dumps_hypothesis(tmp_path, capsys):
    out = gen_planted(tmp_path, capsys, n=12, m=8, k=2, seed=21)
    dump = tmp_path / "hyp"
    code, _, _ = run(
        capsys, "solve-reduce", str(out), "--seed", "3",
        "--dump-hypothesis", str(dump),
    )
    assert code == 0
    tree = parse_tree(dump.read_text())
    assert tree.size >= 1


# ---------------------------------------------------------------- decide


def test_decide_yes_on_planted(tmp_path, capsys):
    out = gen_planted(tmp_path, capsys, n=14, m=12, k=2, seed=8001, alpha="3")
    code, stdout, _ = run(capsys, "decide", str(out), "--seed", "2")
    assert code == 0
    assert stdout.strip() == "YES"


def test_decide_no_on_far_instance(tmp_path, capsys):
    inst = read_syndrome_instance(FAR)
    assert brute_force_nearest(inst, 3 * inst.k) is None
    path = tmp_path / "far"
    path.write_text(FAR)
    code, stdout, err = run(capsys, "decide", str(path), "--seed", "2")
    assert code == 1
    assert stdout.strip() == "NO"
    assert "outcome=No:distance-gate" in err


def test_decide_no_on_far_instance_at_ell_3(tmp_path, capsys):
    # The learner finds no exact fit and returns a constant.
    path = tmp_path / "far"
    path.write_text(FAR)
    code, stdout, err = run(capsys, "decide", str(path), "--seed", "2", "--ell", "3")
    assert code == 1
    assert stdout.strip() == "NO"
    assert "outcome=No:distance-gate" in err


@pytest.mark.parametrize("ell", ["4", "5"])
def test_decide_no_on_far_instance_at_a_wide_block(tmp_path, capsys, ell):
    # C(56, <=8) and C(70, <=10) candidates: the exact-fit search walks
    # a small coset, finds no fit, and the learner returns a constant.
    path = tmp_path / "far"
    path.write_text(FAR)
    started = time.monotonic()
    code, stdout, err = run(capsys, "decide", str(path), "--seed", "2", "--ell", ell)
    assert time.monotonic() - started < 1.0
    assert code == 1
    assert stdout.strip() == "NO"
    assert "outcome=No:distance-gate" in err
    assert "hypothesis_size=1" in err


@pytest.mark.parametrize("alpha", ["84", "100", "1" + "0" * 400])
def test_decide_no_on_far_instance_at_a_huge_alpha(tmp_path, capsys, alpha):
    # From alpha = 84 the gate plus tolerance rounds to the float 0.5,
    # which the far instance's distance of exactly 1/2 must not pass;
    # at 10**400 the margin's exponent passes the float range.
    path = tmp_path / "far"
    path.write_text(FAR.replace("12 14 2 3 1", f"12 14 2 {alpha} 1"))
    started = time.monotonic()
    code, stdout, err = run(capsys, "decide", str(path), "--seed", "2")
    assert time.monotonic() - started < 1.0
    assert code == 1
    assert stdout.strip() == "NO"
    assert "outcome=No:distance-gate" in err
    assert "distance=1/2" in err


def test_decide_yes_on_planted_at_a_huge_alpha(tmp_path, capsys):
    out = gen_planted(tmp_path, capsys, n=14, m=12, k=2, seed=8001, alpha="1" + "0" * 400)
    started = time.monotonic()
    code, stdout, err = run(capsys, "decide", str(out), "--seed", "2")
    assert time.monotonic() - started < 1.0
    assert code == 0
    assert stdout.strip() == "YES"
    assert "distance=0" in err


def test_decide_on_a_huge_alpha_answers_at_once(tmp_path, capsys):
    # The size cap stops at 2**(ell*k) instead of 2**(ell*alpha*k/3).
    out = gen_planted(tmp_path, capsys, n=14, m=12, k=2, seed=1, alpha="1" + "0" * 20)
    tracemalloc.start()
    try:
        started = time.monotonic()
        code, _, err = run(capsys, "decide", str(out))
        elapsed = time.monotonic() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code in (0, 1)
    assert "size_cap=16" in err
    assert elapsed < 1.0
    assert peak < 2**20


def test_decide_vacuous_gate_is_input_error(tmp_path, capsys):
    path = tmp_path / "vacuous"
    path.write_text(VACUOUS)
    code, stdout, err = run(capsys, "decide", str(path), "--seed", "2")
    assert code == 2
    assert stdout == ""
    assert "reason=vacuous-gate" in err


def test_decide_on_readme_demo_is_vacuous(tmp_path, capsys):
    # The README's demo instance has alpha = 1: size cap 2, gate plus
    # tolerance below 0.
    out = gen_planted(tmp_path, capsys, n=14, m=10, k=2, seed=7)
    code, stdout, err = run(capsys, "decide", str(out), "--seed", "2")
    assert code == 2
    assert stdout == ""
    assert "reason=vacuous-gate" in err


# ---------------------------------------------------------------- verify


def test_verify_rejects_wrong_vector(tmp_path, capsys):
    out = gen_planted(tmp_path, capsys, n=8, m=5, k=1, seed=12)
    inst = read_syndrome_instance(out.read_text())
    assert inst.t.mask != 0
    zero = tmp_path / "zero"
    zero.write_text("1 8\n00000000\n")
    code, stdout, _ = run(capsys, "verify", str(out), str(zero), "--k-max", "1")
    assert code == 1
    assert stdout.strip() == "INVALID"


def test_verify_wrong_length_is_input_error(tmp_path, capsys):
    out = gen_planted(tmp_path, capsys, n=8, m=5, k=1, seed=12, name="i2")
    short = tmp_path / "short"
    short.write_text("1 4\n0000\n")
    code, _, err = run(capsys, "verify", str(out), str(short))
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------- errors


def test_malformed_instance_is_input_error(tmp_path, capsys):
    path = tmp_path / "mangled"
    path.write_text("ncpsd v1\n2 2 1 1\n11\n11\n10\n")
    for sub in ("solve-exact", "solve-reduce", "decide"):
        code, _, err = run(capsys, sub, str(path))
        assert code == 2
        assert "error" in err


def test_missing_file_is_input_error(tmp_path, capsys):
    code, _, err = run(capsys, "solve-exact", str(tmp_path / "nope"))
    assert code == 2
    assert "error" in err


def test_unknown_subcommand_exits_via_argparse(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


# ---------------------------------------------------------------- selftest


def test_selftest_fast_passes(capsys):
    code, stdout, _ = run(capsys, "selftest", "--level", "fast")
    assert code == 0
    lines = [ln for ln in stdout.splitlines() if ": " in ln]
    assert len(lines) == 9
    assert all("PASS" in ln for ln in lines)


def test_selftest_fault_injection_is_detected(capsys):
    code, stdout, _ = run(
        capsys, "selftest", "--level", "fast",
        "--inject-fault", "block-correlation",
    )
    assert code == 1
    assert any(
        "block-correlation" in ln and "FAIL" in ln for ln in stdout.splitlines()
    )
