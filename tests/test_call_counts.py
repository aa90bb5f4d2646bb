"""Work counts of the per-exponent hot paths.

The calls fixture rebinds gamma, v0_const, r_cn and its private form _r_cn
(the one every crossover scale is computed by) in every rieszdrop module to
a counting wrapper, the way the benchmark's tracer does (the layers import
these names directly, so patching the defining module alone would miss most
calls).  The evals fixture wraps the objectives the root solves evaluate,
AlphaConstants.f1, f2 and rho0.  The tests bound how often one operation
calls them.  ledger_python_calls counts every named Python call in the
package during the default ledger, the dispatch the layers add around
those objectives.  Counts do not depend on the machine, so these bounds
cannot flake the way timings do.
"""

import os
import sys
from collections import Counter, OrderedDict

import pytest

import rieszdrop
from rieszdrop import cli, specfun, splitting, thresholds
from rieszdrop.cli import main
from rieszdrop.thresholds import (
    AlphaConstants, c2, m_c1, solve_alpha0, solve_eps0, solve_eps1, solve_m2,
)
from rieszdrop.verify import f3, run_ledger

COUNTED = {
    "gamma": specfun.gamma,
    "v0_const": splitting.v0_const,
    "r_cn": splitting.r_cn,
    "_r_cn": splitting._r_cn,
}


@pytest.fixture
def calls(monkeypatch):
    counts = dict.fromkeys(COUNTED, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {name: counting(name, fn) for name, fn in COUNTED.items()}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "rieszdrop":
            continue
        for name, fn in COUNTED.items():
            if vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, wrappers[name])
    return counts


def test_alpha_constants_are_set_once(calls):
    # construction computes every constant: 4 Gamma values and r_cn(1);
    # reading them again computes nothing, since the record is plain data
    # with no property
    k = AlphaConstants(0.034)
    assert calls == {"gamma": 4, "v0_const": 0, "r_cn": 0, "_r_cn": 1}
    names = AlphaConstants.__slots__ + splitting.DiskConstants.__slots__
    values = [getattr(k, name) for name in names]
    assert values == [getattr(k, name) for name in names]
    assert None not in values
    assert calls == {"gamma": 4, "v0_const": 0, "r_cn": 0, "_r_cn": 1}
    for cls in (AlphaConstants, splitting.DiskConstants):
        assert not [name for name, v in vars(cls).items() if isinstance(v, property)], cls


def test_threshold_sample_computes_constants_once(calls, tmp_path):
    # eval's three root solves (m_2, eps_0, eps_1) and its m_c1 share one
    # constants record, which computes each of its 4 Gamma values once;
    # recomputing the Gamma products in every bisection step costs about
    # 900 gamma and 280 v0_const calls, and building V0, m_c1 and the C3
    # lead each from its own Gamma calls cost 14
    assert main(["eval", "--alpha", "0.034", "--out", str(tmp_path / "eval.json")]) == 0
    assert calls["gamma"] == 4
    assert calls["v0_const"] == 0


def test_eval_and_sweep_compute_constants_once_per_exponent(calls, tmp_path):
    # one constants record per exponent holds V0, r_cn(1) and rho_c1: no
    # v0_const call, where a v0_const per constant cost 3 per sweep row and
    # per eval, and at most 4 Gamma values per row (Gamma(1 - alpha) only
    # where the eps_1 solve runs), where m_c1 on its own cost 3 more
    assert main(["eval", "--alpha", "0.034", "--out", str(tmp_path / "eval.json")]) == 0
    assert calls["v0_const"] == 0
    calls["gamma"] = 0
    steps = 21
    code = main(["sweep", "--steps", str(steps), "--out", str(tmp_path / "sweep.csv")])
    assert code == 0
    assert calls["v0_const"] == 0
    assert calls["gamma"] <= 4 * steps


def test_ledger_gamma_calls_per_point(calls):
    # per point, one record computes Gamma(2 - alpha), Gamma(2 - alpha/2),
    # Gamma(3 - alpha/2) and Gamma(1 - alpha) once each: the 4 Gamma rows
    # read them, and so do V0, m_c1 and the C3 lead, which cost 14 more
    # calls each point when each built its own (3 v0_const calls, 3 in m_c1
    # and 2 in the C3 lead); the record's r_cn(1) is the point's one
    # crossover scale
    grid = 5
    run_ledger(grid=grid)
    assert calls["gamma"] == 4 * grid
    assert calls["v0_const"] == 0
    assert calls["_r_cn"] == grid


def test_f3_computes_constants_once(calls):
    # one constants record gives rho0(r) - rho_c1: 4 Gamma values, where
    # the public rho0 and rho_c1 built a record each and cost 7
    for alpha in (1e-3, 0.034, 0.5):
        calls["gamma"] = 0
        f3(alpha, 0.945)
        assert calls["gamma"] == 4, alpha


def test_m_c1_computes_three_gamma(calls):
    # pi r_c1^2 is a disk constant: m_c1 reads it from the disk record, whose
    # 3 Gamma values give V0 and r_cn(1), where a threshold record cost a
    # fourth, Gamma(1 - alpha), that m_c1 never read
    alphas = (0.0, 0.034, 0.5, 1.0, 1.9)
    values = []
    for alpha in alphas:
        calls["gamma"] = calls["_r_cn"] = 0
        values.append(m_c1(alpha))
        assert calls == {"gamma": 3, "v0_const": 0, "r_cn": 0, "_r_cn": 1}, alpha
    assert values == [AlphaConstants(alpha).m_c1 for alpha in alphas]


def test_c2_computes_no_gamma(calls):
    # 2 pi / (2 - alpha) has one written form, which the record and c2 both
    # read; c2 built a whole record for it, 4 Gamma values and r_cn(1)
    alphas = (0.0, 0.034, 0.5, 1.0, 1.9)
    values = [c2(alpha) for alpha in alphas]
    assert calls == {"gamma": 0, "v0_const": 0, "r_cn": 0, "_r_cn": 0}
    assert values == [AlphaConstants(alpha).c2 for alpha in alphas]


def ledger_python_calls():
    """{name: calls} of the named functions under src/rieszdrop in run_ledger(0.032).

    A profile hook counts each "call" event of a frame whose code lives in
    the package, a generator's every resume included; lambdas and
    comprehensions (names in angle brackets) are left out.
    """
    src = os.path.dirname(rieszdrop.__file__) + os.sep
    counts = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(src) and code.co_name[0] != "<":
            counts[code.co_name] += 1

    sys.setprofile(profile)
    try:
        run_ledger(0.032)
    finally:
        sys.setprofile(None)
    return counts


def test_ledger_python_calls():
    # the Python calls of the default-grid ledger, pinned exactly (the
    # walk's path is fixed).  It made 63,166 when the walk passed each
    # prediction through check_alpha, a solve_* method and
    # AlphaConstants._solve to _warm (9,000 calls that evaluate nothing),
    # and run_ledger computed C1 at the eps probe twice per point; now the
    # walk calls _warm itself and runs the 3 solves only for the first two
    # points' cold roots.  Each point's record reads C2 from _c2, its one
    # written form, which c2 reads too (53,182 calls when the record wrote
    # its own).  gamma calls math.gamma itself (54,182 calls when each of
    # its 4,000 calls went on through a private wrapper)
    counts = ledger_python_calls()
    assert sum(counts.values()) == 50_182
    assert counts["gamma"] == 4 * 1000
    assert counts["_c2"] == 1000  # one per grid point's record
    assert counts["_warm"] == 3 * 998
    assert counts["_solve"] == counts["_root"] == 3 * 2
    assert counts["check_alpha"] == 4  # solve_r0 and solve_eps1, cold
    # one C1 per F2: the probe's F2 reads the C1 of the c1_floor row
    assert counts["c1"] == counts["f2"] == 1000 + 2_906


def test_envelope_walks_each_segment_once(calls, tmp_path):
    alpha, r_max = 0.04, 40.0
    # segments (r_cn(n-1), r_cn(n)] meeting (0, r_max]
    segments = 1
    while splitting.r_cn(segments, alpha) < r_max:
        segments += 1
    assert segments == 3_445
    # 4,000 rows is the benchmark's tables shape
    for steps in (400, 4000):
        calls["_r_cn"] = calls["v0_const"] = 0
        code = main(
            ["envelope", "--alpha", str(alpha), "--r-max", str(r_max), "--steps", str(steps),
             "--out", str(tmp_path / "envelope.csv")]
        )
        assert code == 0
        # one r_cn per segment passed (r_cn(1) in the constants record) and
        # none per row: the walk keeps the current n's crossover; one more
        # per row cost 3,845 and 7,445, a search from n = 1 on every row
        # about 7 times as many.  A row of the 400-row table passes up to 17
        # segments, and the search jumps over most of them (921 calls)
        if steps == 4000:
            assert calls["_r_cn"] == segments
        else:
            assert calls["_r_cn"] <= segments // 3, steps
        # one v0 serves the whole table; one per rho_n and r_cn call costs
        # about 2,000
        assert calls["v0_const"] <= 5


def test_envelope_rows_compute_densities_in_the_kernel(monkeypatch):
    # a row's four densities share one r^(2 - alpha) in envelope_rows at
    # tiny radii too: no _rho_n call at a table radius, where each row below
    # r ~ 1.5e-154 made 4.  The one call is the constants record's
    # rho_c1 = rho_1(r_c1)
    seen = []
    rho_n, r_c1 = splitting._rho_n, splitting.r_cn(1, 0.1)

    def counting(n, r, alpha, v0):
        seen.append(r)
        return rho_n(n, r, alpha, v0)

    monkeypatch.setattr(splitting, "_rho_n", counting)
    radii = [1e-200, 1e-200, 1e-160] + [40.0 * i / 400 for i in range(1, 401)]
    assert len(list(splitting.envelope_rows(0.1, radii))) == len(radii)
    assert seen == [r_c1]


def test_envelope_search_jumps_to_its_n(calls):
    # a lone rho_min starts from floor((r / C)^2), C sqrt(n) the large-n
    # form of r_cn(n), and steps to the segment: a few r_cn calls at any n
    # below 2**53 (n about 2.2e6, 2.2e10 and 7.8e15 here)
    for r in (1e3, 1e5, 6e7):
        calls["_r_cn"] = 0
        splitting.rho_min(r, 0.1)
        assert calls["_r_cn"] <= 24, r


def test_cli_builds_its_parser_once(monkeypatch, capsys, tmp_path):
    # one parser and its five subcommand parsers serve every main() call in
    # the process, a usage error and --help included; a parser built per
    # call made 6 per call, 30 here
    built = [0]
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    cli._build_parser.cache_clear()  # start from a process that has built none
    out = str(tmp_path / "table.csv")
    codes = [
        main(["eval", "--alpha", "0.034", "--out", out]),
        main(["sweep", "--steps", "3", "--out", out]),
        main(["sweep", "--steps", "x"]),
        main(["--help"]),
        main(["envelope", "--alpha", "0.04", "--steps", "4", "--out", out]),
    ]
    capsys.readouterr()
    assert codes == [0, 0, 1, 0, 0]
    assert built[0] == 6


def test_potential_profile_reuses_its_series_ratios(monkeypatch):
    # a 70-radius disk_potential profile at one exponent, in the shape of
    # the potential benchmark's: its parameter sets share their series term
    # ratios across radii, so a second pass finds every ratio in the memo
    # and replaces no entry with a longer one.  The first pass sums 1,655
    # terms from 229 ratios, one per term before the memo (pinned exactly)
    monkeypatch.setattr(specfun, "_ratios", OrderedDict())
    alpha = 0.5
    rs = [3.0 * (i - 0.5) / 60 for i in range(1, 61)]
    rs += [1.0 + s * d for d in (1e-1, 1e-2, 1e-3, 1e-4, 1e-8) for s in (-1.0, 1.0)]
    first = [specfun.disk_potential(r, alpha) for r in rs]
    memo = dict(specfun._ratios)
    assert len(memo) == 6
    assert sum(map(len, memo.values())) == 229
    assert [specfun.disk_potential(r, alpha) for r in rs] == first
    assert specfun._ratios.keys() == memo.keys()
    assert all(specfun._ratios[key] is ratios for key, ratios in memo.items())


# Bisection needs about 44 objective evaluations per root on these
# brackets; cold ITP needs about 11.  Along a grid, a solve warm-started
# from a prediction of its root by the previous roots needs 2 where the
# prediction's window holds the root, and about 2.6 on average along the
# ledger grid.  The bounds sit well below bisection's counts.


def test_threshold_sample_objective_evals(evals, tmp_path):
    # eval's three root solves: 132 with bisection, 33 now
    assert main(["eval", "--alpha", "0.034", "--out", str(tmp_path / "eval.json")]) == 0
    assert evals[0] <= 80


def test_ledger_objective_evals_per_point(evals):
    # 3 root solves and 3 probes per point: 134.6 with bisection, 39.0 with
    # cold ITP, 24.36 with secant steps from a linear prediction from the
    # third point on, and 20.78 from a cubic or quartic prediction (the
    # measured count)
    grid = 50
    run_ledger(grid=grid)
    assert evals[0] <= 1_039


def test_alpha0_objective_evals(evals):
    # every outer step runs the three inner solves: 5,717 with bisection
    # (43 outer steps), 497 now (14)
    solve_alpha0()
    assert evals[0] <= 1000


@pytest.fixture
def root_evals(monkeypatch):
    """Objective evaluations of each cold ITP solve, one entry per _root call."""
    per_root = []
    root = thresholds._root

    def counting_root(f, *args, **kwargs):
        n = [0]

        def counted(x):
            n[0] += 1
            return f(x)

        try:
            return root(counted, *args, **kwargs)
        finally:
            per_root.append(n[0])

    monkeypatch.setattr(thresholds, "_root", counting_root)
    return per_root


def test_ledger_no_root_stalls(root_evals):
    # the cold ledger grid, through the public solves: once regula falsi
    # has converged onto one end of the bracket, a step below one ulp
    # re-evaluated that end until the projection radius caught up: 126 of
    # these 3,000 roots took 36 to 48 evaluations and 37,846 in all; kept
    # tol / 2 inside the bracket, none takes over 20 and all take 32,443
    # (pinned exactly: the loop's points are fixed)
    for i in range(1, 1001):
        alpha = 0.032 * i / 1000
        solve_m2(alpha)
        solve_eps0(alpha)
        solve_eps1(alpha)
    assert len(root_evals) == 3000
    assert max(root_evals) == 20
    assert sum(root_evals) == 32_443


def test_ledger_warm_start_evals(evals, root_evals):
    # run_ledger warm-starts every solve from the third point on: 7,777
    # root evaluations where the cold grid takes 32,443 and secant steps
    # from a linear prediction took 17,370, plus 3 probes per point.  Only
    # the first two points run _root (6 cold solves), so no warm solve
    # falls back (pinned exactly, as above)
    run_ledger(0.032, grid=1000)
    assert len(root_evals) == 6
    assert evals[0] == 3 * 1000 + 7_777
