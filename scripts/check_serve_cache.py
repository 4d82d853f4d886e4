#!/usr/bin/env python3
"""CI gate for the apres_serve result cache.

Takes the responses of two identical batches submitted to a fresh
daemon (cold, then warm) and asserts the cache contract:

  * every run in the warm response was served from cache,
  * the daemon ran zero additional simulations for the warm batch,
  * every warm result document is BYTE-identical to its cold twin
    (raw-text comparison, not parse-and-compare), and
  * every run completed with status "ok".

Writes a cache-hit summary (fingerprint, counters, hit ratio) to
--stats for upload as a CI artifact.

usage: check_serve_cache.py COLD_JSON WARM_JSON [--stats OUT_JSON]

With --restarted, WARM_JSON instead comes from a daemon restarted on
the same cache directory, so the warm batch must be answered from the
disk tier alone: every run a diskHit and the fresh daemon's
simulation count still 0.

usage: check_serve_cache.py COLD_JSON WARM_JSON --restarted
"""

import argparse
import json
import sys


def raw_result_texts(response_text):
    """Extract the raw text of every runs[i].result object, in order,
    with string-aware brace matching (the same algorithm the C++ test
    suite uses, so both layers enforce the same bitwise contract)."""
    marker = '"result": {'
    results = []
    pos = 0
    while True:
        pos = response_text.find(marker, pos)
        if pos == -1:
            return results
        start = pos + len(marker) - 1  # at the '{'
        depth = 0
        in_string = False
        i = start
        while i < len(response_text):
            c = response_text[i]
            if in_string:
                if c == "\\":
                    i += 1
                elif c == '"':
                    in_string = False
            elif c == '"':
                in_string = True
            elif c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    results.append(response_text[start:i + 1])
                    break
            i += 1
        else:
            raise ValueError("unbalanced result object")
        pos = i


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("cold")
    parser.add_argument("warm")
    parser.add_argument("--stats", help="write a cache-hit summary here")
    parser.add_argument("--restarted", action="store_true",
                        help="WARM_JSON came from a daemon restarted on "
                             "the cache directory: require all diskHits")
    args = parser.parse_args()

    with open(args.cold) as f:
        cold_text = f.read()
    with open(args.warm) as f:
        warm_text = f.read()
    cold = json.loads(cold_text)
    warm = json.loads(warm_text)

    failed = False

    def check(condition, message):
        nonlocal failed
        if condition:
            print(f"ok   {message}")
        else:
            print(f"FAIL {message}")
            failed = True

    check(cold.get("type") == "result", "cold response is a result")
    check(warm.get("type") == "result", "warm response is a result")
    if failed:
        print(json.dumps(cold, indent=2)[:2000])
        return 1

    cold_runs = cold["runs"]
    warm_runs = warm["runs"]
    check(len(cold_runs) == len(warm_runs) and len(cold_runs) >= 8,
          f"batch carries >= 8 configs ({len(cold_runs)})")

    for i, (c, w) in enumerate(zip(cold_runs, warm_runs)):
        label = w.get("label", f"runs[{i}]")
        check(w["result"]["status"] == "ok", f"{label}: status ok")
        check(w["cached"], f"{label}: warm run served from cache")

    if args.restarted:
        check(warm["cache"]["diskHits"] == len(warm_runs) and
              warm["cache"]["memoryHits"] == 0,
              f"restarted daemon answered every run from disk "
              f"({warm['cache']['diskHits']} diskHits)")
        check(warm["simulations"] == 0,
              f"zero simulation on the restarted daemon "
              f"({warm['simulations']})")
    else:
        check(warm["simulations"] == cold["simulations"],
              f"zero re-simulation on the warm batch "
              f"(simulations stayed at {cold['simulations']})")

    cold_raw = raw_result_texts(cold_text)
    warm_raw = raw_result_texts(warm_text)
    check(len(cold_raw) == len(warm_raw) == len(cold_runs),
          "extracted one raw result per run")
    for i, (c, w) in enumerate(zip(cold_raw, warm_raw)):
        if c != w:
            check(False, f"runs[{i}]: warm result bitwise-identical")
    if cold_raw == warm_raw:
        check(True, f"all {len(cold_raw)} warm results bitwise-identical "
                    "to their cold twins")

    if args.stats:
        hits = warm["cache"]["memoryHits"] + warm["cache"]["diskHits"]
        total = hits + warm["cache"]["misses"]
        summary = {
            "fingerprint": warm["fingerprint"],
            "batchSize": len(warm_runs),
            "coldCache": cold["cache"],
            "warmCache": warm["cache"],
            "simulations": warm["simulations"],
            "cumulativeHitRatio": hits / total if total else 0.0,
            "warmBatchFullyCached": all(r["cached"] for r in warm_runs),
        }
        with open(args.stats, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")
        print(f"wrote {args.stats}")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
