"""Each workload check accepts the program's result and rejects a corrupted one."""

import copy
import os

import pytest

import workloads as W
from conftest import ROOT
from workloads import CheckFailed


def run_once(workload, seed=3):
    inputs = workload.setup(seed)
    out, parts = workload.round(inputs)
    digest = workload.digest(inputs, out)
    return inputs, digest


def rejects(workload, inputs, digest):
    with pytest.raises(CheckFailed):
        workload.check(inputs, digest)
    return True


class SmallFw(W.FwOracle):
    MODELS_PER_DIM = 1
    LADDER = 12


class SmallFrontier(W.Frontier):
    JUNCTIONS = 2
    BUTTERFLIES = 1
    SAMPLED_SUBSETS = 2


def test_fw_oracle_rejects_a_wrong_pm_value():
    wl = SmallFw()
    inputs, digest = run_once(wl)
    assert wl.check(inputs, digest) == 0
    bad = copy.deepcopy(digest)
    lam, pm, direct = bad[0][3]
    bad[0] = bad[0][:3] + ((lam, pm + "1" if pm != "-inf" else "0", direct),) + bad[0][4:]
    assert rejects(wl, inputs, bad)


def _with_piece(digest, index, piece_index, piece):
    bad = copy.deepcopy(digest)
    pieces, seps = bad[index]
    pieces = list(pieces)
    pieces[piece_index] = piece
    bad[index] = (tuple(pieces), seps)
    return bad


def test_stratify_rejects_a_flipped_sign_a_gap_and_a_wrong_separator():
    wl = W.StratifySweep()
    wl.MIX = (("cs", 2, 3), ("canonical", 0, 2))
    inputs, digest = run_once(wl)
    assert wl.check(inputs, digest) == 0
    i = next(k for k, (pieces, _) in enumerate(digest) if len(pieces) > 1)
    signs, lo, lc, hi, hc = digest[i][0][0]
    flipped = "".join({"<": ">", ">": "<", "=": "<"}[s] for s in signs)
    assert rejects(wl, inputs, _with_piece(digest, i, 0, (flipped, lo, lc, hi, hc)))
    assert rejects(wl, inputs, _with_piece(digest, i, 0, (signs, lo, lc, hi, not hc)))
    bad = copy.deepcopy(digest)
    pieces, seps = bad[i]
    par, rep = seps[1]
    bad[i] = (pieces, seps[:1] + ((par, tuple(rep[::-1]) if rep[::-1] != rep
                                   else ("5",) + rep[1:]),) + seps[2:])
    assert rejects(wl, inputs, bad)


def test_frontier_rejects_corrupted_chart_junction_butterfly_and_galois():
    wl = SmallFrontier()
    inputs, digest = run_once(wl)
    assert wl.check(inputs, digest) == 0

    bad = copy.deepcopy(digest)
    nodes, edges = bad["chart"]
    bad["chart"] = (nodes, edges[:-1] + ((edges[-1][1], edges[-1][0]),))
    assert rejects(wl, inputs, bad)

    bad = copy.deepcopy(digest)
    outcome, zrep, steps = bad["junctions"][0]
    k, lam, rep, vec = steps[-1]
    steps = steps[:-1] + ((k, lam, rep, ("9",) + vec[1:]),)
    bad["junctions"][0] = (outcome, zrep, steps)
    assert rejects(wl, inputs, bad)

    bad = copy.deepcopy(digest)
    w, w1, z, z1 = bad["butterflies"][0]
    bad["butterflies"][0] = (w, w1, w, z1)   # the target replaced by a source
    assert rejects(wl, inputs, bad)

    bad = copy.deepcopy(digest)
    first, again = bad["galois"][-1]
    bad["galois"][-1] = (first, again[:-1] if again else (("0", "0", "0"),))
    assert rejects(wl, inputs, bad)


def test_cli_docs_rejects_a_wrong_document_and_counts_input_errors(monkeypatch):
    monkeypatch.chdir(ROOT)
    wl = W.CliDocs()
    inputs, digest = run_once(wl)
    failed = wl.check(inputs, digest)
    assert 0 <= failed <= len(W.MALFORMED)

    bad = copy.deepcopy(digest)
    for k, (argv, (code, stdout, stderr, exc)) in enumerate(bad["commands"]):
        if argv[0] == "interval-profile" and "--json" in argv:
            stdout = stdout.replace('"-2"', '"-3"')
            bad["commands"][k] = (argv, (code, stdout, stderr, exc))
    assert rejects(wl, inputs, bad)

    mended = copy.deepcopy(digest)
    mended["malformed"] = [(argv, (2, "", "input error: bad\n", None))
                           for argv, _ in digest["malformed"]]
    assert wl.check(inputs, mended) == 0
    traceback = copy.deepcopy(mended)
    traceback["malformed"][0] = (traceback["malformed"][0][0], (1, "", "x\n", "TypeError"))
    assert wl.check(inputs, traceback) == 1
    assert os.path.isfile(os.path.join(ROOT, "perfbench", "out", "chart.dot"))
