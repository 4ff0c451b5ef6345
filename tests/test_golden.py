"""Golden digests of outputs the differential check cannot pin.

The oracle gates ``ntscd-rang`` not at all and ``dod-formula`` only as a
superset, and it never sees a symbol table, so a rewrite of the worklist or
the pairwise formula could change these outputs unnoticed.  The all-paths
layer and what is read off it are gated only on small random graphs, so
they are pinned over larger structured ones as well.  Each digest is the
sha256 of the sorted outputs over a fixed family of graphs.
"""

from __future__ import annotations

import hashlib

from ctrldep import (
    ClosureSpec,
    ClosureSpecError,
    cli,
    dod_formula,
    dod_new,
    ntscd_ranganath,
    random_cfg,
    random_reducible_cfg,
    serialize_cfg,
    strong_closure,
    worst_case_dod_cfg,
)
from ctrldep.coloring import vp_sets
from ctrldep.ntscd import (
    ntscd_from_vp,
    ntscd_ranganath_fixed_with_table,
    ntscd_ranganath_with_table,
)

from conftest import fed_cycle_corpus


def corpus():
    for n in range(2, 13):
        for seed in range(200):
            yield random_cfg(n, (3 * n) // 2, seed)


def structured_corpus():
    for n in range(2, 41):
        for seed in range(10):
            yield random_cfg(n, (3 * n) // 2, seed)
    for n in range(8, 65, 8):
        yield worst_case_dod_cfg(n)
    for depth in range(10):
        for seed in range(10):
            yield random_reducible_cfg(depth, seed)


def digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(repr(out).encode())
        h.update(b"\n")
    return h.hexdigest()


def sorted_table(table):
    return sorted((key, sorted(syms)) for key, syms in table.items())


def test_worklist_relations_under_fifo_and_lifo():
    assert digest(
        (sorted(ntscd_ranganath(g, "fifo")), sorted(ntscd_ranganath(g, "lifo"))) for g in corpus()
    ) == "287fa07bb7acd649324cba25f693032058a134f117c09db7b74190f39b3bc875"


def test_worklist_symbol_tables():
    def tables(g):
        fifo = ntscd_ranganath_with_table(g, "fifo")[1]
        lifo = ntscd_ranganath_with_table(g, "lifo")[1]
        fixed = ntscd_ranganath_fixed_with_table(g)[1]
        return sorted_table(fifo), sorted_table(lifo), sorted_table(fixed)

    assert digest(tables(g) for g in corpus()) == "198581162790b25ceb47a544bd555749668b36e2f6064d8394ad4825efce3a5f"


def test_original_formula_relation():
    assert digest(sorted(dod_formula(g, "original")) for g in corpus()) == "62b2910b5a58f689a23f8b00eb4aa2299bbc42eedb4556351a248ac8212d5c08"


def closure_from_first(g, w=()):
    """The closure of the first label and ``w`` from the first label, or
    the precondition error."""
    try:
        return sorted(strong_closure(g, ClosureSpec(w=frozenset({g.labels[0], *w}), start=g.labels[0])))
    except ClosureSpecError as exc:
        return str(exc)


def test_all_paths_sets_and_what_is_read_off_them():
    graphs = list(structured_corpus())
    assert digest(sorted(dod_new(g)) for g in graphs) == "ee7786bce53d494dc1b3abf09e9ee623bfaec7147b2787a7a70251182965b02d"
    assert digest(sorted(ntscd_from_vp(g, vp_sets(g))) for g in graphs) == "c55460a4ed7cc400d12cacc58b4f00ebd8dd9b7ed50d9bb47eb1f4a18c43d732"
    assert digest([sorted(s) for s in vp_sets(g).index_sets] for g in graphs) == "0bbe59148d2403401634fc4e2e0a757abdc89a2a85713cee8cecd82ce1805727"
    assert digest(closure_from_first(g) for g in graphs) == "1544ed724e7f28773ca6ad3a603c1b85cc05cee36a47fd8b2d09d7b696c89052"


def test_dod_on_fed_cycles():
    # Every fed cycle has a non-empty DOD, which the corpora above seldom
    # have.  The closure criterion adds two opposite cycle nodes to the
    # start, so DOD triples pull predicates in.
    def closure(g):
        ring = sorted(x for x in g.labels if x.startswith("c"))
        return closure_from_first(g, (ring[0], ring[len(ring) // 2]))

    graphs = fed_cycle_corpus() + [worst_case_dod_cfg(n) for n in range(8, 129, 8)]
    assert digest(sorted(dod_new(g)) for g in graphs) == "b112a9b386387126f1d153b8dc04cff9e5bf2403993c5fd6336c32e6cf34e320"
    assert digest(closure(g) for g in graphs) == "43cb525a842152e880bde1b85769845f796200096964e08892aa9e54b83abb3e"


def analyze_transcript(g, path, capsys) -> str:
    """Every id's ``analyze`` stdout on ``g`` without its ``time_us`` line,
    then its stderr and exit code; ``cc`` closes the first label from the
    first label."""
    path.write_text(serialize_cfg(g))
    out = []
    for algo in cli.ALGORITHMS:
        argv = ["analyze", "--input", str(path), "--algo", algo]
        if algo == "cc":
            argv += ["--criterion", g.labels[0], "--start", g.labels[0]]
        code = cli.main(argv)
        captured = capsys.readouterr()
        report = [line for line in captured.out.splitlines() if not line.lstrip().startswith('"time_us"')]
        out.append((algo, report, captured.err, code))
    return out


def test_analyze_output(fig3, fig4, fig5, fig7, tmp_path, capsys):
    # The byte-identity gate for the report writer: the exact text analyze
    # prints, not only the relation it holds.
    graphs = [fig3, fig4, fig5, fig7, worst_case_dod_cfg(16), worst_case_dod_cfg(32)]
    graphs += [random_cfg(12, 18, seed) for seed in range(20)]
    graphs += fed_cycle_corpus()[:20]
    path = tmp_path / "g.json"
    assert digest(analyze_transcript(g, path, capsys) for g in graphs) == "f8304c305c2895e73cbb79ae9c2dbe1795bbf3e27d46d2883817581c8da27319"
