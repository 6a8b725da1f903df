"""The verification suites must pass.  Each paper check runs as its own test
at its full documented range, so the identities it re-derives need no
second exhaustive test elsewhere.  A suite may share its checks out between
forked workers, with or without a should_stop; the tests at the end compare
such runs with in-order ones on one CPU and check that no worker outlives
its call."""

import contextlib
import hashlib
import math
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from patstat import cli, engine, perms, verify, words


@pytest.mark.parametrize(
    "name, check", verify.PAPER_CHECKS, ids=[name for name, _ in verify.PAPER_CHECKS]
)
def test_paper_suite_passes(name, check):
    # nmax=9 pushes every bounded check to its full documented range
    r = check(9)
    assert r.passed, r.line()
    assert r.cases > 0
    assert r.name == name


#: Each paper check's case count at --nmax 3 to 7, in PAPER_CHECKS order, so
#: that no check drops, merges or adds a case unnoticed.  At 7 inv-under-symmetries
#: and maj-under-complement reach their cap of 7; containment-under-symmetries
#: reaches its cap of 6 at 6.
_CASES = {
    3: [80, 10, 800, 640, 454, 400, 200, 60, 256, 960, 120, 12, 171, 8, 8, 18, 8, 255, 255,
        24, 18, 26],
    4: [272, 34, 2720, 2176, 454, 400, 200, 60, 320, 1200, 150, 12, 201, 9, 9, 21, 9, 511, 511,
        27, 21, 32],
    5: [1232, 154, 12320, 9856, 454, 400, 200, 60, 384, 1440, 180, 12, 231, 10, 10, 24, 10,
        1023, 1023, 30, 24, 38],
    6: [6992, 874, 69920, 9856, 454, 400, 200, 60, 448, 1680, 210, 12, 261, 11, 11, 27, 11,
        2047, 2047, 33, 27, 44],
    7: [47312, 5914, 69920, 9856, 454, 400, 200, 60, 512, 1920, 240, 12, 291, 12, 12, 30, 12,
        4095, 4095, 36, 30, 50],
}


@pytest.mark.parametrize("nmax", sorted(_CASES))
def test_paper_checks_keep_their_cases(nmax):
    results = verify.run_paper_suite(nmax)
    assert [r.name for r in results] == [name for name, _ in verify.PAPER_CHECKS]
    assert [r.cases for r in results] == _CASES[nmax]
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]


#: SHA-1 of the stdout of `verify --suite paper --nmax N --format F`; the CLI
#: goldens pin --nmax 1 only.
_PAPER_OUTPUT_SHA1 = {
    (3, "text"): "9abd90f898ecd89b054fdf1c1712c66db8f76c6d",
    (3, "json"): "740da1797883b25b6e2aba799f66a84149ca5fc9",
    (5, "text"): "5908bcd85aca3d22be98e18eddb7c7f75578f76b",
    (5, "json"): "747dc252a68081d6f2ff8f56ff85aa306ea7004c",
    (8, "text"): "7aa1b37cf01198a5cfb867b3ca44377c5d66de6e",
    (8, "json"): "039de6648eb6795deeddf87acb24b136adbd9f72",
}


@pytest.mark.parametrize("nmax, fmt", sorted(_PAPER_OUTPUT_SHA1))
def test_paper_suite_output_is_pinned(nmax, fmt, capsys):
    code = cli.main(["verify", "--suite", "paper", "--nmax", str(nmax), "--format", fmt])
    out, err = capsys.readouterr()
    assert (code, hashlib.sha1(out.encode()).hexdigest(), err) == (
        0, _PAPER_OUTPUT_SHA1[nmax, fmt], "")


#: (exit code, SHA-1 of the stdout) of `verify --suite conjectures --nmax N
#: --format F`; at --nmax 3 trivial-inv-wilf cannot yet separate the orbits.
_CONJECTURE_OUTPUT_SHA1 = {
    (3, "text"): (1, "9ff7d7e0f27b01265300eeaaaea1c214ea12aecf"),
    (3, "json"): (1, "7836136c4df579a47ea297df3c0bb6301537e1c6"),
    (6, "text"): (0, "7e63e6bbacc65e779ac10014eea3d6f92d1f3b06"),
    (6, "json"): (0, "166724769d7e735e0e982a969a03654a068b94fe"),
    (8, "text"): (0, "513b0794654e5d882722f7c8f9f0dbecd9a9beae"),
    (8, "json"): (0, "5bcd7437aeb83a62f956617f246eb25bedf81d51"),
}


@pytest.mark.parametrize("nmax, fmt", sorted(_CONJECTURE_OUTPUT_SHA1))
def test_conjecture_suite_output_is_pinned(nmax, fmt, capsys):
    code = cli.main(["verify", "--suite", "conjectures", "--nmax", str(nmax), "--format", fmt])
    out, err = capsys.readouterr()
    assert (code, hashlib.sha1(out.encode()).hexdigest(), err) == (
        *_CONJECTURE_OUTPUT_SHA1[nmax, fmt], "")


def _plus_one_at(p0):
    return lambda f: lambda p: f(p) + (p == p0)


def _appends_0_at_24153(f):
    # every image of 24153 becomes a sequence of length 6 that is no permutation
    return lambda tag, p: f(tag, p) + (0,) * (p == (2, 4, 1, 5, 3))


@pytest.mark.parametrize("module, kernel, broken, name, nmax, line", [
    (perms, "inv", _plus_one_at((2, 1, 3)), "inv-under-symmetries", 3,
     "FAIL inv-under-symmetries (80 cases): inv R180(132) = 2 != 1; inv r-1(132) = 2 != 1; "
     "inv R90(213) = 2 != 1; ... 9 more"),
    (perms, "maj", _plus_one_at((2, 1, 3)), "maj-under-complement", 3,
     "FAIL maj-under-complement (10 cases): maj complement fails at 213; "
     "maj complement fails at 231"),
    (perms, "apply_symmetry", _appends_0_at_24153, "inv-under-symmetries", 5,
     "FAIL inv-under-symmetries (1232 cases): inv R0(24153) = 9 != 4; "
     "inv R90(24153) = 11 != 6; inv R180(24153) = 9 != 4; ... 5 more"),
    (perms, "apply_symmetry", _appends_0_at_24153, "containment-under-symmetries", 5,
     "FAIL containment-under-symmetries (12320 cases): "
     "containment not preserved by R0 on (24153, 321); "
     "containment not preserved by R180 on (24153, 321); "
     "containment not preserved by r-1 on (24153, 321); ... 1 more"),
    (perms, "contains", lambda f: lambda p, q: f(p, q) and (p, q) != ((1, 3, 2), (1, 2)),
     "containment-under-symmetries", 3,
     "FAIL containment-under-symmetries (800 cases): containment not preserved by R90 on "
     "(132, 12); containment not preserved by R180 on (132, 12); containment not preserved "
     "by R270 on (132, 12); ... 9 more"),
    (engine, "stat_poly", lambda f: lambda n, pats, *rest: (
        f(n, pats, *rest).reverse(n) if (n, pats) == (4, ((1, 3, 2),)) else f(n, pats, *rest)),
     "inv-polynomial-transport", 4,
     "FAIL inv-polynomial-transport (1200 cases): inv transport fails: R90(132) at n=4; "
     "inv transport fails: R180(132) at n=4; inv transport fails: R270(132) at n=4; "
     "... 9 more"),
    (words, "foata", lambda f: lambda v: f(v)[:-1] if v == (1, 0, 1) else f(v),
     "run-rearrangement-bijection", 0,
     "FAIL run-rearrangement-bijection (31 cases): statistic transport fails at 101"),
], ids=["inv", "maj", "symmetry-inv", "symmetry-containment", "contains", "stat_poly", "foata"])
def test_a_kernel_wrong_on_one_input_fails_its_check(monkeypatch, module, kernel, broken,
                                                      name, nmax, line):
    # the checks that read a kernel's value many times read it from a table;
    # an image outside the table, as a broken map returns, must be read too
    monkeypatch.setattr(module, kernel, broken(getattr(module, kernel)))
    assert dict(verify.PAPER_CHECKS)[name](nmax).line() == line


def test_conjecture_suite_passes():
    results = verify.run_conjecture_suite(nmax=7)
    failed = [r.line() for r in results if not r.passed]
    assert not failed, failed
    assert len(results) == 5


@pytest.mark.parametrize(
    "run, nmax",
    [(verify.run_paper_suite, 3), (verify.run_conjecture_suite, 5)],
    ids=["paper", "conjectures"],
)
def test_deadline_is_polled_before_each_case(monkeypatch, run, nmax):
    # on one CPU every case is polled in this process, so the calls can be counted here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    calls = 0

    def should_stop():
        nonlocal calls
        calls += 1
        return False

    results = run(nmax, should_stop=should_stop)
    assert calls >= sum(r.cases for r in results)
    # a stop that fires inside the first check ends the run there
    calls = 0
    with pytest.raises(engine.SearchCancelled):
        run(nmax, should_stop=lambda: should_stop() or calls > 3)
    assert calls == 4


def test_a_long_case_stops_inside_the_engine(monkeypatch):
    # counts-from-polynomials enumerates the 9! members of Av_9() in one case;
    # a stop that fires once they start coming must end that enumeration
    enumerate_avoiders = engine.enumerate_avoiders
    seen = 0

    def counted(n, patterns, should_stop=None):
        nonlocal seen
        for p in enumerate_avoiders(n, patterns, should_stop):
            seen += n == 9 and not patterns
            yield p

    monkeypatch.setattr(engine, "enumerate_avoiders", counted)
    check = dict(verify.PAPER_CHECKS)["counts-from-polynomials"]
    with pytest.raises(engine.SearchCancelled):
        check(9, should_stop=lambda: seen > 0)
    assert 0 < seen < math.factorial(9)


@pytest.mark.parametrize("name", ["inv-polynomial-transport", "maj-polynomial-complement"])
def test_transport_checks_leave_the_profile_cache_alone(name):
    # their comparison runs bypass the cache, so every profile cached
    # before them stays, as the same object
    for n in range(7):
        for k in (3, 4):
            for p in perms.all_perms(k):
                engine.profile(n, (p,))
    before = dict(engine._profile_cache)
    r = dict(verify.PAPER_CHECKS)[name](6)
    assert r.passed, r.line()
    assert [key for key, prof in before.items() if engine._profile_cache.get(key) is not prof] == []


def test_the_complement_check_runs_the_complement(monkeypatch):
    # a complement move that forgets to reverse inv keeps every maj
    # polynomial right, so only a run on the complement itself can show it
    moved = engine.Profile.moved

    def forgets_inv(self, n, tag):
        out = moved(self, n, tag)
        return engine.Profile(self.inv_poly, out.majdes_poly) if tag == "r0" else out

    monkeypatch.setattr(engine.Profile, "moved", forgets_inv)
    monkeypatch.setattr(engine, "_profile_cache", {})
    r = dict(verify.PAPER_CHECKS)["maj-polynomial-complement"](6)
    assert not r.passed
    assert r.failures[0] == "profile of 321 moved from 123 != its own run at n=3"


@pytest.mark.parametrize("name, key, field, length, total", [
    # the descent transport case maps all 1430 members of Av_8(132) at once
    ("bijection-suite", "132-to-231", "map", 8, math.comb(16, 8) // 9),
    # the first case follows one pass over all 8191 words of length <= 12
    ("image-characterizations", "231-321", "words", 12, 2**12),
], ids=["bijection-suite", "image-characterizations"])
def test_a_long_pass_outside_the_engine_stops_early(monkeypatch, name, key, field, length, total):
    # a stop that fires at the first call on an input of the given length
    # must end the pass over those inputs long before it is through
    record = words.BIJECTIONS[key]
    inner = getattr(record, field)
    calls = 0

    def counted(x):
        nonlocal calls
        calls += len(x) == length
        return inner(x)

    monkeypatch.setitem(words.BIJECTIONS, key, record._replace(**{field: counted}))
    check = dict(verify.PAPER_CHECKS)[name]
    with pytest.raises(engine.SearchCancelled):
        check(9, should_stop=lambda: calls > 0)
    assert 0 < calls <= 300 < total


def _reversed(f):
    return lambda *args: f(*args)[::-1]


@pytest.mark.parametrize("key", ["312-321", "132-231-partition", "132-to-231"])
@pytest.mark.parametrize("field, broken", [
    ("map", _reversed),
    ("carries", lambda f: lambda p, image: not f(p, image)),
    ("inverse", _reversed),
], ids=["map", "carries", "inverse"])
def test_the_bijection_suite_checks_every_part_of_each_record(monkeypatch, key, field, broken):
    record = words.BIJECTIONS[key]
    monkeypatch.setitem(words.BIJECTIONS, key,
                        record._replace(**{field: broken(getattr(record, field))}))
    r = dict(verify.PAPER_CHECKS)["bijection-suite"](4)
    assert not r.passed
    assert r.failures and all(f.startswith(f"{key} ") for f in r.failures), r.failures


def test_image_characterizations_check_each_claimed_image(monkeypatch):
    record = words.BIJECTIONS["312-321"]
    monkeypatch.setitem(words.BIJECTIONS, "312-321",
                        record._replace(foata=words.in_start_one_set))
    r = dict(verify.PAPER_CHECKS)["image-characterizations"](2)
    assert not r.passed
    assert r.failures[0] == "run rearrangement of the 312-321 words misses its image at length 1"


def test_check_result_lines():
    results = verify.run_conjecture_suite(nmax=5)
    for r in results:
        line = r.line()
        assert line.startswith(("PASS", "FAIL"))
        assert r.name in line


def test_a_bound_of_another_conjecture_is_refused():
    with pytest.raises(TypeError):
        verify.conjecture_suite("sporadic-maj", pattern_length=4)
    with pytest.raises(TypeError):
        verify.conjecture_suite("maj-parity", max_inflation_length=6)


def test_trivial_inv_wilf_names_unseparated_orbits(monkeypatch):
    # 1324 and 1243 first differ at n = 6, so n_max = 5 cannot confirm
    rep = verify.conjecture_suite("trivial-inv-wilf", n_max=5)
    assert not rep.passed
    assert rep.failures == (
        "class ['1243', '1324', '2134'] joins orbits ['1243', '2134'], ['1324']: "
        "not separated up to n_max=5",
        "class ['3421', '4231', '4312'] joins orbits ['3421', '4312'], ['4231']: "
        "not separated up to n_max=5",
    )
    assert verify.conjecture_suite("trivial-inv-wilf", n_max=6).passed
    # a class that splits an orbit is a broken conjecture, not a small bound
    split = engine.EquivalenceReport("inv", 4, 1, 5, ((((1, 2, 4, 3),),),))
    monkeypatch.setattr(engine, "classify", lambda *args, **kwargs: split)
    rep = verify.conjecture_suite("trivial-inv-wilf", n_max=5)
    assert rep.failures == ("class ['1243'] != orbit ['1243', '2134']",)


# ---------------------------------------------------------------------------
# suites shared out between forked workers

#: the CPUs this process may run on; a suite forks at most CPUS - 1 workers
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
PAPER_NAMES = [name for name, _ in verify.PAPER_CHECKS]


def _workers(checks):
    """The workers a suite of `checks` checks should fork here."""
    return min(CPUS, checks) - 1 if sys.platform == "linux" and hasattr(os, "fork") else 0


def _in_order(run, nmax):
    """run(nmax) on one CPU, where this process runs every check in order."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        return run(nmax)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returns to this process during the test."""
    fork, pids = os.fork, []

    def counted():
        pid = fork()
        pids.append(pid)  # a worker appends 0 to its own copy
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.mark.parametrize("run, nmax", [(verify.run_paper_suite, n) for n in range(9)]
                         + [(verify.run_conjecture_suite, n) for n in range(1, 9)],
                         ids=[f"paper-{n}" for n in range(9)]
                         + [f"conjectures-{n}" for n in range(1, 9)])
def test_a_fanned_suite_matches_its_in_order_run(run, nmax, forks):
    fanned = run(nmax)
    assert len(forks) == _workers(len(fanned))
    assert fanned == _in_order(run, nmax)
    _assert_no_child_left()


@pytest.mark.parametrize("run", [verify.run_paper_suite, verify.run_conjecture_suite],
                         ids=["paper", "conjectures"])
def test_a_negative_nmax_is_refused_before_anything_forks(run, forks):
    with pytest.raises(ValueError, match="^n_max must be nonnegative$"):
        run(-1)
    assert forks == []


def test_a_limit_of_inf_forks_as_no_limit_does(forks, capsys):
    # a deadline, infinite or not, is polled alike in every process, so the suite
    # forks as it does without one
    runs = []
    for limit in ([], ["--limit-seconds", "inf"], ["--limit-seconds", "600"]):
        forks.clear()
        code = cli.main(["verify", "--suite", "conjectures", "--nmax", "6"] + limit)
        runs.append((code, capsys.readouterr(), len(forks)))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0] == 0 and runs[0][2] == _workers(len(verify.CONJECTURE_CHECKS))


@pytest.mark.parametrize("run, nmax",
                         [(verify.run_paper_suite, 3), (verify.run_conjecture_suite, 5)],
                         ids=["paper", "conjectures"])
def test_a_fanned_suite_polls_before_each_case_in_the_process_that_runs_it(tmp_path, forks,
                                                                           run, nmax):
    # every process appends one byte per poll to the same file
    polls = os.open(tmp_path / "polls", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def should_stop():
        os.write(polls, b"x")
        return False

    try:
        fanned = run(nmax, should_stop=should_stop)
    finally:
        os.close(polls)
    assert len(forks) == _workers(len(fanned))
    _assert_no_child_left()
    assert (tmp_path / "polls").stat().st_size >= sum(r.cases for r in fanned)
    assert fanned == _in_order(run, nmax)


def test_a_deadline_that_fires_mid_suite_ends_every_process(forks):
    deadline = time.monotonic() + 0.3
    with pytest.raises(engine.SearchCancelled):
        verify.run_paper_suite(9, should_stop=lambda: time.monotonic() > deadline)
    assert len(forks) == _workers(len(verify.PAPER_CHECKS))
    _assert_no_child_left()


def _reversed_at_4_132(stat_poly):
    def broken(n, pats, *rest, **kwargs):
        poly = stat_poly(n, pats, *rest, **kwargs)
        return poly.reverse(n) if (n, pats) == (4, ((1, 3, 2),)) else poly
    return broken


@pytest.mark.parametrize("module, kernel, broken, name, nmax", [
    (perms, "contains", lambda f: lambda p, q: f(p, q) and (p, q) != ((1, 3, 2), (1, 2)),
     "containment-under-symmetries", 3),
    (engine, "stat_poly", _reversed_at_4_132, "inv-polynomial-transport", 4),
    (words, "foata", lambda f: lambda v: f(v)[:-1] if v == (1, 0, 1) else f(v),
     "run-rearrangement-bijection", 0),
], ids=["contains", "stat_poly", "foata"])
def test_a_fanned_suite_fails_a_broken_kernel_as_its_check_alone(monkeypatch, forks, module,
                                                                  kernel, broken, name, nmax):
    # a worker is forked after the monkeypatch, so it runs the broken kernel too
    monkeypatch.setattr(module, kernel, broken(getattr(module, kernel)))
    fanned = verify.run_paper_suite(nmax)
    alone = dict(verify.PAPER_CHECKS)[name](nmax)
    assert not alone.passed
    assert fanned[PAPER_NAMES.index(name)] == alone
    assert fanned == _in_order(verify.run_paper_suite, nmax)
    assert len(forks) == _workers(len(fanned))


@pytest.mark.parametrize("reason", ["one-cpu", "second-thread", "no-fork"])
def test_a_suite_stays_in_order_when_forking_is_not_safe_or_not_wanted(monkeypatch, reason):
    def fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", fork)
    done = threading.Event()
    thread = threading.Thread(target=done.wait, args=(60,))
    if reason == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif reason == "second-thread":
        thread.start()
    else:
        monkeypatch.delattr(os, "fork")
    try:
        results = verify.run_paper_suite(3)
    finally:
        done.set()
    if reason == "second-thread":
        thread.join(60)
        assert not thread.is_alive()
    assert [r.cases for r in results] == _CASES[3]
    assert all(r.passed for r in results)


def _waits_here(fn, seconds):
    """fn, run after a sleep of `seconds` in this process only, so that a
    worker claims the checks this process would claim meanwhile."""
    me = os.getpid()

    def check(n, should_stop=None):
        if os.getpid() == me:
            time.sleep(seconds)
        return fn(n, should_stop)
    return check


def _overflows(n, should_stop=None):
    raise OverflowError("coefficient 1 exceeds the signed 64-bit range")


@pytest.mark.parametrize("position", [0, 1], ids=["first-check", "second-check"])
def test_a_check_that_raises_ends_a_fanned_run_as_it_ends_one_in_order(monkeypatch, capsys,
                                                                        forks, position):
    checks = list(verify.PAPER_CHECKS)
    checks[position] = checks[position][0], _overflows
    if position == 1:  # this process waits in the first check, so a worker runs the second
        checks[0] = checks[0][0], _waits_here(checks[0][1], 0.2)
    monkeypatch.setattr(verify, "PAPER_CHECKS", tuple(checks))
    argv = ["verify", "--suite", "paper", "--nmax", "3"]
    fanned = cli.main(argv), tuple(capsys.readouterr())
    assert len(forks) == _workers(len(checks))
    _assert_no_child_left()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    in_order = cli.main(argv), tuple(capsys.readouterr())
    assert fanned == in_order == (
        1, ("", "patstat: integer overflow: coefficient 1 exceeds the signed 64-bit range\n"))


def test_a_worker_busy_when_this_process_raises_is_not_waited_for(monkeypatch, forks):
    # this process waits in check 0, so a worker claims check 1 and sleeps
    # there; check 2 then raises here, and the run must end that worker
    me = os.getpid()

    def sleeps_in_a_worker(fn):
        def check(n, should_stop=None):
            if os.getpid() != me:
                time.sleep(30)
            return fn(n, should_stop)
        return check

    checks = list(verify.PAPER_CHECKS)
    checks[0] = checks[0][0], _waits_here(checks[0][1], 0.2)
    checks[1] = checks[1][0], sleeps_in_a_worker(checks[1][1])
    checks[2] = checks[2][0], _overflows
    monkeypatch.setattr(verify, "PAPER_CHECKS", tuple(checks))
    start = time.monotonic()
    with pytest.raises(OverflowError):
        verify.run_paper_suite(3)
    assert time.monotonic() - start < 10
    assert len(forks) == _workers(len(checks))
    _assert_no_child_left()


def test_checks_of_a_worker_killed_in_a_check_are_run_here(monkeypatch, forks):
    me = os.getpid()
    told, tell = os.pipe()

    def dies_in_a_worker(fn):
        def check(n, should_stop=None):
            if os.getpid() != me:
                os.write(tell, b"x")
                os.kill(os.getpid(), signal.SIGKILL)
            return fn(n, should_stop)
        return check

    checks = [(name, dies_in_a_worker(fn)) for name, fn in verify.PAPER_CHECKS]
    checks[0] = checks[0][0], _waits_here(checks[0][1], 0.1)
    monkeypatch.setattr(verify, "PAPER_CHECKS", tuple(checks))
    try:
        results = verify.run_paper_suite(3)
        os.close(tell)
        deaths = os.read(told, 64)
    finally:
        with contextlib.suppress(OSError):
            os.close(tell)
        os.close(told)
    _assert_no_child_left()
    assert deaths == b"x" * len(forks) and len(forks) == _workers(len(checks))
    assert [r.cases for r in results] == _CASES[3]
    assert all(r.passed for r in results)


def _ends_with_its_workers(flags, end, stderr):
    """Run `patstat verify --suite paper --nmax 9` with flags in a session of
    its own, which holds the command and every worker it forks; end(pid) is
    called once it has started.  It must exit 1 with stderr alone, leaving no
    process in its session."""
    proc = subprocess.Popen([sys.executable, "-m", "patstat", "verify", "--suite", "paper",
                             "--nmax", "9"] + flags, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        end(proc.pid)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out, err) == (1, b"", stderr)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(60)


@pytest.mark.parametrize("target", ["process", "session"])
def test_an_interrupt_ends_a_fanned_run_with_its_workers(target):
    def interrupt(pid):
        time.sleep(0.3)
        (os.kill if target == "process" else os.killpg)(pid, signal.SIGINT)

    _ends_with_its_workers([], interrupt, b"patstat: interrupted\n")


def test_a_time_limit_that_fires_mid_suite_ends_the_command_with_its_workers():
    _ends_with_its_workers(["--limit-seconds", "0.3"], lambda pid: None,
                           b"patstat: time limit exceeded, partial results suppressed\n")


def test_text_printed_before_a_fanned_run_is_written_once():
    code = ("from patstat import verify; print('before'); verify.run_paper_suite(1); "
            "print('after', verify._workers(len(verify.PAPER_CHECKS)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    assert proc.stdout == f"before\nafter {_workers(len(PAPER_NAMES))}\n"
