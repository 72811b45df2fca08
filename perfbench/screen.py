"""Write bank.json: the draws on which conversion and check are right.

    python3 perfbench/screen.py

Run from the root of a source checkout.  For every stratum the timing
workloads use, draws 0, 1, 2, ... of ``corpus.draw`` are converted and
checked in process, and the first ``KEEP`` that pass the gate are kept.
The bank is data of the benchmark: rerun this only when the generator
changes, never to make a later commit pass.
"""

import json
import sys

import run  # sets the thread variables and the import path
import corpus
import gate

KEEP = 8
TRIES = 64


def passes(vd, doc):
    kernel = vd.parse_material(json.dumps(doc))
    try:
        dual = vd.dualize(kernel)
        right = gate.dual_ok(doc, vd.serialize_material(dual))
        return right and run.check_pair(vd, doc, kernel, dual)
    except Exception:   # any failure disqualifies the draw
        return False


def main():
    sys.path.insert(0, run.SRC)
    import viscodual as vd
    strata = [("scalar", kind, count, pattern) for kind in corpus.KINDS
              for count in range(13) for pattern in corpus.PATTERNS["scalar"]]
    strata += [("matrix6", kind, count, pattern) for kind in corpus.KINDS
               for count in range(1, 9) for pattern in corpus.PATTERNS["matrix6"]]
    strata += [("matrix6", kind, 20, pattern) for kind in corpus.KINDS
               for pattern in corpus.LARGE_PATTERNS]
    bank, rejected, tried = {}, 0, 0
    for stratum in strata:
        kept = []
        for number in range(TRIES):
            tried += 1
            if passes(vd, corpus.draw(*stratum, number)):
                kept.append(number)
                if len(kept) == KEEP:
                    break
            else:
                rejected += 1
        if kept:   # a stratum where nothing passes is left out
            bank[corpus.stratum_key(*stratum)] = kept
    with open(corpus.BANK_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                         for k, v in sorted(bank.items())) + "\n}\n")
    print(f"{len(bank)} strata, {tried} draws tried, {rejected} rejected")


if __name__ == "__main__":
    main()
