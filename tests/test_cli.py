"""Command-line entry points, run in process through main(argv)."""

import time
import tracemalloc
from random import Random
from unittest import mock

import pytest

from ncplift.cli import _report, main
from ncplift.dtree import parse_tree
from ncplift.f2 import BitVector, parse_vector
from ncplift.gadget import GadgetOracle
from ncplift.instance import brute_force_nearest, read_syndrome_instance
from ncplift.learners import exhaustive_parity_learner
from ncplift.reduction import ReductionConfig, search
from helpers import cpu_limit

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
    assert planted == BitVector(8, 0)


def test_gen_alpha_is_stamped(tmp_path, capsys):
    out = gen_planted(tmp_path, capsys, alpha="3", name="stamped")
    assert out.read_text().splitlines()[1].endswith(" 3 1")


def test_gen_alpha_is_read_exactly_from_three_forms(tmp_path, capsys):
    # ASCII N, N/D and A.B, stamped as numerator and denominator; any
    # other form is refused with exit 2 and nothing written.  Fraction
    # would build the power of ten of an exponent form first, about
    # 9 s of CPU at 1e10000000 and past a minute at 1e100000000.
    for text, stamped in (("7", "7 1"), ("7/2", "7 2"), ("3.50", "7 2")):
        out = gen_planted(tmp_path, capsys, alpha=text, name="alpha")
        assert out.read_text().split("\n")[1] == f"10 14 2 {stamped}"
    out = tmp_path / "refused"
    with cpu_limit(2.0):
        for text in ("1e100000000", "1E5", "-3", "+3", " 3", "3 ", "1_0", "\u0663", "3/0", "3.", ".5",
                     "1/2/3", "1.5/2", "inf", "nan", ""):
            code, stdout, err = run(capsys, "gen", "--n", "8", "--m", "5", "--k", "1", "--seed", "1",
                                    "--alpha", text, "--out", str(out))
            assert code == 2 and stdout == "", text
            assert "argument --alpha: not a rational number N, N/D or A.B" in err
            assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["decide", "solve-reduce"])
def test_sparsity_past_n_is_refused_before_anything_is_built(tmp_path, capsys, command):
    # A 2 x 3 instance with k = 10**8: decide's thresholds would build
    # 2**(ell*k), two 25 MB ints, before the learner refused the depth.
    path = tmp_path / "deep"
    path.write_text("ncpsd v1\n2 3 100000000 3 1\n110\n011\n10\n")
    tracemalloc.start()
    try:
        code, stdout, err = run(capsys, command, str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and stdout == ""
    assert "error=sparsity k = 100000000 exceeds the number of coordinates n = 3" in err
    assert peak < 2**20


def test_gen_rejects_bad_shape(tmp_path, capsys):
    code, _, err = run(
        capsys, "gen", "--n", "4", "--m", "9", "--k", "1",
        "--seed", "0", "--out", str(tmp_path / "bad"),
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command", ["gen", "solve-reduce", "decide"])
def test_negative_seed_is_input_error(tmp_path, capsys, command):
    # Random(-1) seeds like Random(1), so --seed -1 would silently repeat
    # the run of --seed 1 while reporting seed=-1.
    if command == "gen":
        argv = ["gen", "--n", "14", "--m", "10", "--k", "2", "--out", str(tmp_path / "neg")]
    else:
        argv = [command, str(gen_planted(tmp_path, capsys, alpha="3"))]
    code, stdout, err = run(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert stdout == ""
    assert "outcome=error" in err
    assert "error=seed must be >= 0, got -1" in err
    assert not (tmp_path / "neg").exists()


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
    assert "meeting in the middle takes at least 2**" in err
    assert "coset walk 2**200" in err


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
    "command, flags",
    [
        pytest.param(
            "solve-reduce", ("--samples", "1000000000000"), id="solve-reduce-flags1-SAMPLE_MAX_BYTES"
        ),
        pytest.param(
            "decide", ("--samples", "1000000000000"), id="decide-flags2-SAMPLE_MAX_BYTES"
        ),
        pytest.param("decide", ("--ell", "1000000000000"), id="decide-flags3-SAMPLE_MAX_BYTES"),
    ],
)
def test_work_past_the_bounds_is_input_error(tmp_path, capsys, command, flags):
    # On the README demo, 10**12 samples or a 10**12-wide block cannot
    # be packed.  Both are refused at once, before anything of their
    # size is allocated.
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
    assert "SAMPLE_MAX_BYTES" in err
    assert "Traceback" not in err
    assert elapsed < 1.0
    assert peak < 2**20


def check_certificate(tmp_path, capsys, instance, body, n, k_max):
    sol = tmp_path / "sol"
    sol.write_text(f"1 {n}\n{body.strip()}\n")
    code, stdout, _ = run(capsys, "verify", str(instance), str(sol), "--k-max", str(k_max))
    assert (code, stdout.strip()) == (0, "OK")


@pytest.mark.parametrize("ell", ["9", "100"], ids=["ell9", "ell100"])
def test_deep_trees_answer(tmp_path, capsys, ell):
    # On the README demo (k = 2), ell = 9 or 100 lets the learner build
    # a parity tree of depth 18 or 200, 2**18 or 2**200 leaves on 37 or
    # 401 nodes.  Every walk costs the nodes: decide reports distance 0
    # and solve-reduce's certificate verifies, within its sparsity cap
    # 3 * ceil(log2(size)) // ell = 6.
    out = gen_planted(tmp_path, capsys, alpha="3")
    started = time.process_time()
    code, stdout, err = run(capsys, "decide", str(out), "--ell", ell)
    assert (code, stdout.strip()) == (0, "YES")
    assert "distance=0" in err.splitlines()
    code, stdout, err = run(capsys, "solve-reduce", str(out), "--ell", ell)
    assert code == 0
    assert time.process_time() - started < 5.0
    check_certificate(tmp_path, capsys, out, stdout, 14, 6)


def test_depth_1400_trees_answer_and_dump_one_line_per_node(tmp_path, capsys):
    # Planted (14, 12, 7) at ell = 200: a parity DAG of depth 1400 on
    # 2801 nodes.  With 3000 samples, more than the 2800 lifted columns,
    # both pipelines answer, and the dump has one line per node and
    # parses back to the tree search learned.  At the default 2000
    # samples the learner's search is refused: its kernel has dimension
    # at least 800.
    out = gen_planted(tmp_path, capsys, n=14, m=12, k=7, seed=8001, alpha="3")
    flags = ("--ell", "200", "--samples", "3000")
    code, stdout, err = run(capsys, "decide", str(out), *flags)
    assert (code, stdout.strip()) == (0, "YES")
    assert {"distance=0", "hypothesis_size=2**1400", "size_cap=2**1400"} <= set(err.splitlines())
    dump = tmp_path / "hyp"
    code, stdout, _ = run(capsys, "solve-reduce", str(out), *flags, "--dump-hypothesis", str(dump))
    assert code == 0
    check_certificate(tmp_path, capsys, out, stdout, 14, 21)
    text = dump.read_text()
    assert len(text.splitlines()) == 2 * 1400 + 1 and len(text) < 2**16
    inst = read_syndrome_instance(out.read_text())
    cfg = ReductionConfig(ell=200, learner_samples=3000)
    assert parse_tree(text) == search(inst, cfg, exhaustive_parity_learner, Random(0)).hypothesis
    for command in ("decide", "solve-reduce"):
        code, stdout, err = run(capsys, command, str(out), "--ell", "200")
        assert (code, stdout) == (2, "")
        assert "exact search too large" in err and "Traceback" not in err


def test_report_writes_large_powers_of_two_by_exponent(capsys):
    # A tree of depth d has up to 2**d leaves: from 2**64 on, a power of
    # two is written as one; every other value stays decimal.
    values = [2**63, 2**64, 2**64 + 1, 3 << 64, 2**1400, 0, True]
    _report(**{f"v{i}": v for i, v in enumerate(values)})
    assert capsys.readouterr().err.splitlines() == [
        f"v0={2**63}", "v1=2**64", f"v2={2**64 + 1}", f"v3={3 << 64}", "v4=2**1400", "v5=0", "v6=True",
    ]


def test_solve_reduce_at_depth_fourteen(tmp_path, capsys):
    # k = 7 at ell = 2: the learner's parity tree has depth 14, and one
    # elimination on the seven whole blocks of its one path set gives
    # the one solution union, with no listing of the set's subsets.
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


@pytest.mark.parametrize("command, alpha", [("solve-reduce", None), ("decide", "3")])
def test_learner_search_refused_before_sampling(tmp_path, capsys, command, alpha):
    # 300 samples over the 400 lifted columns of a (200, 100, 3) instance
    # leave a kernel of dimension at least 100, and meeting in the middle
    # up to size 6 is past the bound too: refused before any sample.
    path = gen_planted(tmp_path, capsys, n=200, m=100, k=3, seed=1, alpha=alpha)
    with mock.patch.object(GadgetOracle, "sample_columns", side_effect=AssertionError):
        code, stdout, err = run(capsys, command, str(path), "--samples", "300")
    assert code == 2
    assert stdout == ""
    assert "error=exact search too large" in err
    assert "kernel dimension at least 100" in err


@pytest.mark.parametrize(
    "command, alpha, answer",
    [("solve-reduce", None, "0" * 200), ("decide", "3", "YES")],
    ids=["solve-reduce", "decide"],
)
def test_zero_target_past_the_shape_bound_is_answered(tmp_path, capsys, command, alpha, answer):
    # The (200, 100, 3) shape of the test above with t = 0: every label
    # is 0, so the empty parity fits the sample with no search, and the
    # answer is x = 0 (solve-reduce) or an accept (decide), not a refusal.
    path = gen_planted(tmp_path, capsys, n=200, m=100, k=3, seed=1, alpha=alpha)
    lines = path.read_text().split("\n")
    lines[-2] = "0" * 100
    path.write_text("\n".join(lines))
    code, stdout, err = run(capsys, command, str(path), "--samples", "300")
    assert (code, stdout) == (0, answer + "\n")
    assert "too large" not in err


@pytest.mark.parametrize("command, alpha, code", [("solve-reduce", None, 4), ("decide", "3", 1)])
def test_one_sample_past_the_shape_bound_is_answered(tmp_path, capsys, command, alpha, code):
    # One sample gives a one-bit label column, which the empty parity or
    # its complement fits with no search: a constant tree, which finds
    # no solution (solve-reduce) and is rejected (decide) at any seed.
    path = gen_planted(tmp_path, capsys, n=200, m=100, k=3, seed=1, alpha=alpha)
    for seed in ("0", "1", "2", "3"):
        assert run(capsys, command, str(path), "--samples", "1", "--seed", seed)[0] == code


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
    # A short parameter line; then numbers that int() reads but that are
    # not ASCII decimal: a sign, an underscore and an Arabic-Indic digit.
    for text in ("ncpsd v1\n2 2 1 1\n11\n11\n10\n", "ncpsd v1\n+1 0_2 \u0661 1 1\n10\n1\n"):
        path.write_text(text)
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


def test_selftest_unknown_fault_is_input_error(capsys):
    code, stdout, err = run(capsys, "selftest", "--inject-fault", "no-such-fault")
    assert (code, stdout) == (2, "")
    assert "unknown fault id 'no-such-fault'" in err
