"""Reference grid: the sequential loop `gradagrad grid` ran before its
replicas stepped in lockstep.

Each (value, seed) pair gets its own single-replica optimizer and seed-state
and a full run record at every evaluation, exactly as cmd_grid built them
one after another. tests/test_grid_differential.py holds each lockstep
replica bit-identical to its run here.
"""

import argparse

import numpy as np

from gradagrad import SGD, Adam, AdaGrad, GradaGrad, ScalarGradaGrad, cli


def build_optimizer(args, x0):
    """One optimizer for one run, as the CLI built it per (value, seed)."""
    if args.optimizer == "gradagrad":
        return GradaGrad(x0, cli._build_hyperparams(args))
    if args.optimizer == "gradagrad-scalar":
        return ScalarGradaGrad(x0, cli._build_hyperparams(args))
    if args.optimizer == "adagrad":
        return AdaGrad(x0, gamma=args.gamma0)
    if args.optimizer == "sgd":
        return SGD(x0, lr=args.gamma0)
    return Adam(x0, lr=args.gamma0)


def selection_metric(rows):
    """(kind, value): mean accuracy over the last <=10 evaluations if the
    problem reports accuracy, else the final loss."""
    acc = [row[3] for row in rows if row[3] is not None]
    if acc:
        return "accuracy", float(np.mean(acc[-10:]))
    return "loss", float(rows[-1][2])


def sequential_grid(argv):
    """Run the grid of `gradagrad grid <argv>` one (value, seed) at a time.
    Returns [(opt, rows)] in value-major order: run vi * seeds + si is value
    vi (sorted) with seed si."""
    args = cli.build_parser().parse_args(["grid", *argv])
    param = args.grid_param.replace("-", "_")
    problem, x0, n_batches, steps, eval_every = cli._build_run(args)
    runs = []
    for vi, value in enumerate(sorted(args.grid_values)):
        run_args = argparse.Namespace(**vars(args))
        setattr(run_args, param, value)
        for si in range(args.seeds):
            opt = build_optimizer(run_args, x0)
            run_seed = int(np.random.SeedSequence([args.seed, vi, si]).generate_state(1, np.uint64)[0])
            state = problem.init_state(run_seed)
            rows = [cli._eval_row(0, n_batches, problem, opt)]
            for k in range(1, steps + 1):
                opt.step(problem.grad_sample(opt.x, [state]))
                if k % eval_every == 0 or k == steps:
                    rows.append(cli._eval_row(k, n_batches, problem, opt))
            runs.append((opt, rows))
    return runs
