"""Command-line entry point wiring every module together.

Subcommands: gen-suite, evaluate, build-corpus, report-diff. All randomness
flows from explicit --seed flags; a missing seed is generated, printed, and
recorded in the output manifest. Output directories are content-addressed by
run hash so distinct runs never overwrite each other.

`evaluate` writes each trajectory line as its episode ends, in card order, to
a temporary file in the run directory, and publishes it as
`trajectories.jsonl` by rename after the last episode; a run that stops early
leaves no `trajectories.jsonl`. So its memory holds the cards, the grades and
one episode, however many trajectories it writes; with `--jobs` above 1 it
submits at most 2 x jobs cards ahead of the writer, so it holds at most that
many episodes, running or waiting to be written. Every artifact is written as
UTF-8, whatever the locale.

Each command runs in a fresh process, so this module imports at module level
only what every command uses. A module that one command needs on one code
path is imported inside that path: `pipeline` by build-corpus, `remote` by
the remote agent and the remote teacher, `concurrent.futures` by
`evaluate --jobs` above 1, and `secrets` when --seed is missing. Type hints
reach them through `TYPE_CHECKING` imports.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING

import click

from .agents import make_policy
from .bank import load_bank, load_shipped_bank
from .benchgen import (
    EpisodeCard,
    SuiteSpec,
    generalization_split,
    read_suite,
    suite_manifest,
    write_suite,
)
from .encoders import dumps_canonical, dumps_indented, loads
from .episode import Trajectory, trajectory_to_line
from .errors import ConfigError, FaultHarnessError
from .metrics import (
    aggregate,
    bootstrap_ci,
    correlations,
    grade_episode,
    grade_series,
    report_csv_rows,
    report_to_json_text,
)
from .seeds import derive_seed
from .simulator import SimConfig, run_episode

if TYPE_CHECKING:
    from .remote import EndpointConfig

RUN_SEED_STREAM = 0xE7A1


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    import secrets

    generated = secrets.randbits(32)
    click.echo(f"seed not given; generated seed={generated}")
    return generated


class HarnessFailure(click.ClickException):
    """A harness error reported as a message, exiting with code 2."""

    exit_code = 2


def _make_dir(path: Path) -> None:
    """Create `path` and its missing parents; exit 2 naming it when that fails."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise HarnessFailure(f"cannot create directory {path}: {exc.strerror}") from exc


class _HarnessGroup(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except FaultHarnessError as exc:
            raise HarnessFailure(str(exc)) from exc


@click.group(cls=_HarnessGroup)
def main():
    """Fault-injection simulator and robustness evaluation harness."""


# --- gen-suite -----------------------------------------------------------------------


@main.command("gen-suite")
@click.option("--n", "n_episodes", type=int, required=True, help="Number of episode cards.")
@click.option("--seed", type=int, default=None, help="Master seed (generated if absent).")
@click.option("--clean-fraction", type=float, default=0.2, show_default=True)
@click.option(
    "--hold-out",
    "hold_out",
    multiple=True,
    help="Failure kind to hold out of the agent-visible bank (repeatable).",
)
@click.option("--out", type=click.Path(dir_okay=False), default="suite.jsonl", show_default=True)
def cmd_gen_suite(n_episodes, seed, clean_fraction, hold_out, out):
    """Generate a deterministic evaluation suite (plus pruned bank if held out)."""
    seed = _resolve_seed(seed)
    spec = SuiteSpec(
        n_episodes=n_episodes,
        master_seed=seed,
        clean_fraction=clean_fraction,
        held_out_kinds=frozenset(hold_out),
    )
    out_path = Path(out)
    _make_dir(out_path.parent)
    bank = load_shipped_bank()
    visible_bank, cards = generalization_split(spec, bank=bank)
    write_suite(out_path, cards)
    manifest = suite_manifest(spec, cards, bank.version)
    manifest_path = out_path.with_suffix(out_path.suffix + ".manifest.json")
    manifest_path.write_text(dumps_indented(manifest), encoding="utf-8")
    if hold_out:
        bank_path = out_path.with_suffix(out_path.suffix + ".bank.json")
        bank_doc = {
            "version": f"{bank.version}-heldout",
            "exemplars": [ex.to_json() for ex in visible_bank.exemplars],
        }
        bank_path.write_text(dumps_canonical(bank_doc) + "\n", encoding="utf-8")
        click.echo(f"pruned bank: {bank_path} ({len(visible_bank)} exemplars)")
    failures = sum(1 for c in cards if not c.plan.is_clean)
    click.echo(
        f"suite: {out_path} ({len(cards)} cards, {failures} failure episodes, "
        f"seed={seed})"
    )


# --- evaluate -------------------------------------------------------------------------


def _finite(ctx, param, value):
    """Reject NaN and infinities: a NaN gate compares false and never fails,
    and a NaN alpha would fail only after every episode has run."""
    if value is not None and not math.isfinite(value):
        raise click.BadParameter(f"{param.opts[0].lstrip('-')} must be finite, not {value}")
    return value


def run_card(
    card: EpisodeCard, agent: str, bank, seed: int, endpoint: EndpointConfig | None = None
) -> Trajectory:
    """One card's episode under the named agent, its budgets and evaluation seed `seed`."""
    policy = make_policy(agent, card.steps, card.retry_budget, seed=seed, endpoint=endpoint)
    config = SimConfig(
        max_steps=card.max_steps, retry_budget_per_error=card.retry_budget, rng_seed=seed
    )
    return run_episode(
        card.prompt, card.tools, policy, card.plan, config,
        bank=bank, episode_id=card.episode_id,
    )


def _in_card_order(job, cards, jobs: int):
    """`job(card)` for each card, lazily and in card order; on `jobs` threads above 1,
    with at most 2 x jobs cards submitted and not yet taken by the caller."""
    if jobs == 1:
        yield from map(job, cards)
        return
    from concurrent.futures import ThreadPoolExecutor

    window = deque()
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        try:
            for card in cards:
                if len(window) == 2 * jobs:
                    yield window.popleft().result()
                window.append(pool.submit(job, card))
            while window:
                yield window.popleft().result()
        finally:  # a failed or abandoned run starts no further card
            for future in window:
                future.cancel()


@main.command("evaluate")
@click.option("--suite", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option(
    "--agent",
    type=click.Choice(["vanilla", "toolbench", "reflect", "critic", "paladin", "remote"]),
    required=True,
)
@click.option(
    "--bank", "bank_path", type=click.Path(exists=True, dir_okay=False), default=None
)
@click.option("--no-retrieval", is_flag=True, help="Remove the bank handle (ablation).")
@click.option("--seed", type=int, default=None)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Worker threads; only the remote agent gains from more than 1.")
@click.option("--out-dir", type=click.Path(file_okay=False), default="runs", show_default=True)
@click.option("--alpha", type=float, default=1.0, show_default=True, callback=_finite)
@click.option("--n-resamples", type=click.IntRange(min=1), default=1000, show_default=True)
@click.option("--endpoint-url", default=None, help="Remote agent endpoint base URL.")
@click.option("--endpoint-model", default="default")
@click.option("--assert-min-rr", type=float, default=None, callback=_finite)
@click.option("--assert-min-tsr", type=float, default=None, callback=_finite)
@click.option("--assert-min-csr", type=float, default=None, callback=_finite)
def cmd_evaluate(
    suite,
    agent,
    bank_path,
    no_retrieval,
    seed,
    jobs,
    out_dir,
    alpha,
    n_resamples,
    endpoint_url,
    endpoint_model,
    assert_min_rr,
    assert_min_tsr,
    assert_min_csr,
):
    """Run every card through the simulator, grade, aggregate, write reports."""
    seed = _resolve_seed(seed)
    # each input file is read once: its bytes are parsed and hashed, then dropped
    suite_bytes = Path(suite).read_bytes()
    cards = read_suite(suite, suite_bytes)
    if not cards:
        raise ConfigError("suite file holds no cards")
    run_digest = hashlib.sha256(suite_bytes)
    del suite_bytes
    bank = None
    bank_sha256 = None
    if not no_retrieval:
        if bank_path:
            bank_bytes = Path(bank_path).read_bytes()
            bank = load_bank(bank_path, bank_bytes)
            bank_sha256 = hashlib.sha256(bank_bytes).hexdigest()
            del bank_bytes
        else:
            bank = load_shipped_bank()
    bank_version = "disabled" if bank is None else bank.version
    endpoint = None
    if agent == "remote":
        if not endpoint_url:
            raise ConfigError("remote agent requires --endpoint-url")
        from .remote import EndpointConfig

        endpoint = EndpointConfig(base_url=endpoint_url, model=endpoint_model)

    flags = {
        "agent": agent,
        "seed": seed,
        "alpha": alpha,
        "no_retrieval": no_retrieval,
        "bank_version": bank_version,
        "n_resamples": n_resamples,
        "suite": Path(suite).name,
    }
    if bank_sha256 is not None:
        flags["bank_sha256"] = bank_sha256
    if endpoint is not None:
        flags.update(endpoint_url=endpoint.base_url, endpoint_model=endpoint.model)
    run_digest.update(dumps_canonical(flags).encode("utf-8"))
    run_hash = run_digest.hexdigest()[:12]
    run_dir = Path(out_dir) / f"run-{run_hash}"
    _make_dir(run_dir)

    def job(card: EpisodeCard):
        traj = run_card(card, agent, bank, seed, endpoint)
        return trajectory_to_line(traj), grade_episode(traj, card)

    grades = []
    partial = run_dir / "trajectories.jsonl.partial"
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            for line, grade in _in_card_order(job, cards, jobs):
                fh.write(line + "\n")
                grades.append(grade)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    os.replace(partial, run_dir / "trajectories.jsonl")

    report = aggregate(grades, alpha=alpha)
    report.bootstrap = bootstrap_ci(
        grades, n_resamples=n_resamples, seed=derive_seed(seed, RUN_SEED_STREAM, 0)
    )
    report.n_resamples = n_resamples
    report.correlations = correlations(grade_series(grades))

    (run_dir / "grades.jsonl").write_text(
        "".join(dumps_canonical(g.to_json()) + "\n" for g in grades), encoding="utf-8"
    )
    (run_dir / "report.json").write_text(report_to_json_text(report), encoding="utf-8")
    (run_dir / "report.csv").write_text(
        "\n".join(report_csv_rows(report, Path(suite).name, agent)) + "\n", encoding="utf-8"
    )
    (run_dir / "manifest.json").write_text(
        dumps_indented({"flags": flags, "run_hash": run_hash}), encoding="utf-8"
    )

    doc = report.to_json()
    click.echo(
        "tsr={tsr} rr={rr} csr={csr} es={es} composite={composite}".format(**doc)
    )
    click.echo(f"report: {run_dir}")

    failed = []
    if assert_min_rr is not None and (doc["rr"] is None or doc["rr"] < assert_min_rr):
        failed.append(f"rr {doc['rr']} < {assert_min_rr}")
    if assert_min_tsr is not None and doc["tsr"] < assert_min_tsr:
        failed.append(f"tsr {doc['tsr']} < {assert_min_tsr}")
    if assert_min_csr is not None and (doc["csr"] is None or doc["csr"] < assert_min_csr):
        failed.append(f"csr {doc['csr']} < {assert_min_csr}")
    if failed:
        click.echo("assertion failures: " + "; ".join(failed), err=True)
        sys.exit(1)


# --- build-corpus ----------------------------------------------------------------------


@main.command("build-corpus")
@click.option("--target", type=click.IntRange(min=2), default=100, show_default=True)
@click.option(
    "--recovery-fraction",
    type=click.FloatRange(0, 1, min_open=True, max_open=True),
    default=0.8,
    show_default=True,
)
@click.option(
    "--teacher",
    type=click.Choice(["rule", "remote"]),
    default="rule",
    show_default=True,
)
@click.option("--seed", type=int, default=None)
@click.option("--out-dir", type=click.Path(file_okay=False), default="corpus", show_default=True)
@click.option("--endpoint-url", default=None)
@click.option("--endpoint-model", default="default")
def cmd_build_corpus(
    target, recovery_fraction, teacher, seed, out_dir, endpoint_url, endpoint_model
):
    """Build a recovery-annotated corpus with spans and manifest."""
    from .pipeline import CorpusSpec, RuleBasedTeacher, RemoteTeacher, build_corpus

    seed = _resolve_seed(seed)
    bank = load_shipped_bank()
    if teacher == "remote":
        from .remote import EndpointConfig, TOKEN_ENV_VAR

        if not endpoint_url:
            raise ConfigError("--teacher remote requires --endpoint-url")
        if not os.environ.get(TOKEN_ENV_VAR):
            raise ConfigError(
                f"--teacher remote requires the {TOKEN_ENV_VAR} environment variable"
            )
        teacher_backend = RemoteTeacher(
            EndpointConfig(base_url=endpoint_url, model=endpoint_model)
        )
    else:
        teacher_backend = RuleBasedTeacher(bank)

    spec = CorpusSpec(target_size=target, recovery_fraction=recovery_fraction, seed=seed)
    out = Path(out_dir)
    _make_dir(out)
    corpus, quarantine = build_corpus(spec, teacher_backend, dictionary_version=bank.version)
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for line in corpus.lines():
            fh.write(line + "\n")
    (out / "spans.json").write_text(dumps_indented(corpus.spans), encoding="utf-8")
    (out / "manifest.json").write_text(dumps_indented(corpus.manifest), encoding="utf-8")
    if quarantine:
        (out / "quarantine.jsonl").write_text(
            "".join(q + "\n" for q in quarantine), encoding="utf-8"
        )
    click.echo(
        f"corpus: {out / 'corpus.jsonl'} ({spec.n_recovery} recovery + {spec.n_clean} clean, "
        f"seed={seed}, quarantined={len(quarantine)})"
    )


# --- report-diff -------------------------------------------------------------------------


_DIFF_METRICS = ("tsr", "rr", "csr", "es", "composite")


def _read_report(path) -> dict:
    try:
        doc = loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON or not UTF-8
        raise ConfigError(f"report {path} is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"report {path} is not a JSON object")
    for metric in _DIFF_METRICS:
        value = doc.get(metric)
        if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ConfigError(f"report {path}: {metric} is not a number: {value!r}")
    return doc


@main.command("report-diff")
@click.argument("report_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("report_b", type=click.Path(exists=True, dir_okay=False))
def cmd_report_diff(report_a, report_b):
    """Print per-metric deltas between two report.json files."""
    a, b = _read_report(report_a), _read_report(report_b)
    for metric in _DIFF_METRICS:
        va, vb = a.get(metric), b.get(metric)
        if va is None or vb is None:
            click.echo(f"{metric}: {va} -> {vb}")
        else:
            click.echo(f"{metric}: {va:.4f} -> {vb:.4f} (delta {vb - va:+.4f})")


if __name__ == "__main__":
    main()
