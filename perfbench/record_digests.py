"""Record pass digests of every workload into perfbench/digests.json.

    python3 perfbench/record_digests.py --seeds 32

Run from the repository root, on a commit whose outputs are known good.
For each workload and each seed below ``--seeds`` it runs one checked pass
over the seed's input pool and stores the pass digest.  Seeds already
recorded are recomputed and must match; the script never changes a
recorded digest, and exits 1 if one differs or an op fails.
"""

import argparse
import json
import sys

import run


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=32)
    args = ap.parse_args(argv)
    if not run.find_sources():
        return 2
    path = run.HERE / "digests.json"
    recorded = json.loads(path.read_text(encoding="utf-8"))
    bad = 0
    for name, workload in run.workloads.WORKLOADS.items():
        table = recorded.setdefault(name, {})
        for seed in range(args.seeds):
            loop = run.Loop(workload(seed))
            loop.timed(0)
            digest = loop.pass_digest()
            known = table.get(str(seed))
            if loop.failed or (known is not None and known != digest):
                bad += 1
                print(f"{name} seed {seed}: failed={loop.failed} digest {digest} recorded {known}",
                      file=sys.stderr)
                for err in loop.errors:
                    print(f"  {err}", file=sys.stderr)
                continue
            table[str(seed)] = digest
            print(f"{name} seed {seed}: {digest}", flush=True)
    if bad:
        return 1
    ordered = {name: dict(sorted(t.items(), key=lambda kv: int(kv[0])))
               for name, t in sorted(recorded.items())}
    path.write_text(json.dumps(ordered, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
