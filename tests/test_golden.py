"""Golden digests of the variants the differential check does not gate.

The oracle gates ``ntscd-rang`` not at all and ``dod-formula`` only as a
superset, and it never sees a symbol table, so a rewrite of the worklist or
the pairwise formula could change these outputs unnoticed.  Each digest is
the sha256 of the sorted outputs over a fixed family of random graphs.
"""

from __future__ import annotations

import hashlib

from ctrldep import (
    dod_formula,
    ntscd_ranganath,
    ntscd_ranganath_fixed_with_table,
    ntscd_ranganath_with_table,
    random_cfg,
)


def corpus():
    for n in range(2, 13):
        for seed in range(200):
            yield random_cfg(n, (3 * n) // 2, seed)


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
