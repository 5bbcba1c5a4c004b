"""The kernels_warm worker: import once, load once, then time warm passes.

    python bench/warm.py MATRIX INCOME DEADLINE [SPANS_JSON]

Set-up is the package import, reading the valued trade matrix and the
income panel, and one warm-up pass. When it is done the worker prints
``ready`` on its own line, so the parent can time set-up from outside,
interpreter start included. It then runs passes until DEADLINE, a Unix
time as ``time.time()`` gives it, at least one pass, and prints one JSON
line with a record per pass.

A pass is ``prune_degenerate(rca_binarize(x))`` -> ``compute_metrics``
-> ``run_paper_regressions`` -> ``estimate_tau(tsi, 221)``. Each pass
reports a sha256 of everything it computed, which the parent compares
with the warm-up pass's.

With SPANS_JSON the worker traces every public library call (see
tracer.py) and writes the spans there at the end.
"""

# Only sys and time come before the package import, so a traced worker
# counts the same new modules as a plain ``import ecomplex``.
import sys
import time

K_FIT = 221


def _digest(parts) -> str:
    import hashlib

    import numpy as np

    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part, dtype=float).tobytes())
    return h.hexdigest()


def _regression_coefficients(report):
    blocks = (report.rank_rank, report.log_log, report.eci_on_tdi, report.fitness_on_dlogd)
    return [res.coefficients for block in blocks for key, res in sorted(block.items())
            if key != "closer_to_benchmark"]


def one_pass(ec, x, panel) -> dict:
    import resource

    wall0, cpu0 = time.perf_counter(), time.process_time()
    bm = ec.prune_degenerate(ec.rca_binarize(x))
    t1 = time.perf_counter()
    cm, pm, _, iters = ec.compute_metrics(bm)
    t2 = time.perf_counter()
    report = ec.run_paper_regressions(bm, panel, cm, pm)
    t3 = time.perf_counter()
    tau_hat, ks = ec.estimate_tau(pm.tsi, K_FIT)
    t4, cpu4 = time.perf_counter(), time.process_time()
    computed = [cm.tdi, cm.eci, cm.fitness, pm.tsi, pm.pci, pm.q,
                *_regression_coefficients(report),
                [report.spearman_gdp_d.statistic, iters, tau_hat, ks]]
    return {
        "wall_s": t4 - wall0,
        "cpu_s": cpu4 - cpu0,
        "filter_s": t1 - wall0,
        "metrics_s": t2 - t1,
        "validate_s": t3 - t2,
        "fit_tau_s": t4 - t3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": _digest(computed),
        "facts": {
            "countries": bm.n_countries,
            "matched": len(report.join.matched),
            "tdi_mean": float(cm.tdi.mean()), "tdi_std": float(cm.tdi.std()),
            "eci_mean": float(cm.eci.mean()), "eci_std": float(cm.eci.std()),
            "tau_hat": tau_hat,
        },
    }


def main(argv) -> int:
    matrix_path, income_path, deadline = argv[0], argv[1], float(argv[2])
    spans_path = argv[3] if len(argv) > 3 else None
    tracer = None
    if spans_path:
        from tracer import Tracer, import_package, install

        tracer = Tracer("setup")
        ec = import_package(tracer)
        install(tracer)
    else:
        import ecomplex as ec
    import json

    x = ec.read_matrix(matrix_path)
    panel = ec.read_income_csv(income_path)
    warmup = one_pass(ec, x, panel)
    print("ready", flush=True)

    passes = []
    while not passes or time.time() < deadline:
        if tracer is not None:
            tracer.pass_id = f"p{len(passes) + 1}"
        record = {"ok": True, "error": None}
        try:
            record.update(one_pass(ec, x, panel))
        except Exception as exc:  # a failed pass is counted, and the run goes on
            record.update(ok=False, error=f"{type(exc).__name__}: {exc}")
        passes.append(record)
    if tracer is not None:
        tracer.dump(spans_path, {"passes": [{"pass": f"p{i + 1}", "wall_s": p.get("wall_s", 0.0)}
                                            for i, p in enumerate(passes)]})
    print(json.dumps({"warmup": warmup, "passes": passes}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
