"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 backend error.
"""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

import click

from .config import build_gateway, load_config
from .engine import Engine
from .errors import CorruptFileError, VerdocError
from .evaluation import load_dataset, run_eval
from .fileio import json_bytes, read_json, write_atomic
from .indexer import SUMMARY_FILE, index_corpus, manifest_problems

logger = logging.getLogger(__name__)


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--verbose", is_flag=True, help="log at DEBUG level")
@click.pass_context
def cli(ctx, config_path, verbose):
    """Version-aware indexing and question answering over document corpora."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    ctx.ensure_object(dict)
    ctx.obj["config"] = load_config(config_path)


def _engine(ctx, index_dir) -> Engine:
    config = ctx.obj["config"]
    return Engine.load(index_dir, build_gateway(config), k=config.retrieval.k)


@cli.command()
@click.argument("corpus_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.pass_context
def index(ctx, corpus_dir, out_dir):
    """Index a corpus directory into a version graph plus vector index."""
    config = ctx.obj["config"]
    gateway = build_gateway(config)
    summary = index_corpus(
        corpus_dir,
        out_dir,
        gateway,
        dimension=config.gateway.dimension,
        chunk_size=config.ingestion.chunk_size,
        overlap=config.ingestion.chunk_overlap,
        page_tokens=config.ingestion.page_tokens,
    )
    click.echo(json.dumps(summary.to_dict(), indent=2, sort_keys=True))


@cli.command()
@click.argument("text")
@click.option("--index", "index_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--k", type=int, default=None, help="number of context items")
@click.option("--show-context", is_flag=True, help="print retrieved context items")
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
@click.pass_context
def query(ctx, text, index_dir, k, show_context, as_json):
    """Answer a question against an indexed corpus."""
    engine = _engine(ctx, index_dir)
    result = engine.ask(text, k=k)
    if as_json:
        click.echo(
            json.dumps(
                {
                    "intent": result.parsed.intent.value,
                    "mode": result.context.mode.value,
                    "answer": result.answer.text,
                    "citations": result.answer.citations,
                    "context": [
                        {
                            "text": item.text,
                            "document": item.document,
                            "version": item.version,
                            "origin": item.origin,
                        }
                        for item in result.context.items
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return
    click.echo(result.answer.text)
    if show_context:
        click.echo("")
        for item in result.context.items:
            click.echo(f"[{item.document} @ {item.version}] ({item.origin})")
            click.echo(f"  {item.text[:200]}")


@cli.command()
@click.argument("document")
@click.option("--index", "index_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def versions(ctx, document, index_dir, as_json):
    """List a document's versions in order."""
    engine = _engine(ctx, index_dir)
    labels = engine.versions(document)
    if as_json:
        click.echo(json.dumps(labels))
    else:
        for label in labels:
            click.echo(label)


@cli.command()
@click.argument("document")
@click.argument("frm", metavar="FROM")
@click.argument("to")
@click.option("--index", "index_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def changes(ctx, document, frm, to, index_dir, as_json):
    """List change records between two versions of a document."""
    engine = _engine(ctx, index_dir)
    records = engine.changes(document, frm, to)
    if as_json:
        click.echo(
            json.dumps(
                [
                    {
                        "id": r.id,
                        "from_version": None if r.from_version is None else r.from_version.raw,
                        "to_version": r.to_version.raw,
                        "kind": r.kind.value,
                        "origin": r.origin.value,
                        "description": r.description,
                    }
                    for r in records
                ],
                indent=2,
                sort_keys=True,
            )
        )
        return
    if not records:
        click.echo("(no change records in range)")
    for r in records:
        click.echo(f"{r.span} [{r.kind.value}/{r.origin.value}] {r.description}")


@cli.command(name="eval")
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False))
@click.option("--index", "index_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--judge", "judge_mode", type=click.Choice(["exact", "llm"]), default="exact")
@click.option("--report", "report_path", type=click.Path(dir_okay=False), default=None)
@click.pass_context
def eval_command(ctx, dataset, index_dir, judge_mode, report_path):
    """Evaluate a QA dataset and print per-category accuracy."""
    engine = _engine(ctx, index_dir)
    items = load_dataset(dataset)
    mode = "deterministic" if judge_mode == "exact" else "llm"
    report = run_eval(engine, items, judge_mode=mode)
    payload = report.to_dict()
    if report_path:
        write_atomic(report_path, json_bytes(payload))
    for category, stats in payload["per_category"].items():
        click.echo(f"{category}: {stats['correct']}/{stats['total']} = {stats['accuracy']:.3f}")
    click.echo(f"overall: {payload['overall_correct']}/{payload['overall_total']} = "
               f"{payload['overall_accuracy']:.3f}")


@cli.command()
@click.option("--index", "index_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.pass_context
def validate(ctx, index_dir):
    """Check the graph's invariants, that graph and vector index agree, and
    that every file the manifest lists still has its recorded sha256."""
    engine = _engine(ctx, index_dir)
    problems = engine.validate() + manifest_problems(index_dir)
    if problems:
        for problem in problems:
            click.echo(f"violation: {problem}", err=True)
        raise SystemExit(2)
    click.echo("graph valid")


@cli.command()
@click.option("--index", "index_dir", required=True, type=click.Path(exists=True, file_okay=False))
def usage(index_dir):
    """Print the token accounting recorded at indexing time."""
    summary_path = Path(index_dir) / SUMMARY_FILE
    if not summary_path.exists():
        raise VerdocError(f"no {SUMMARY_FILE} under {index_dir}")
    data = read_json(summary_path, "summary file", CorruptFileError)
    click.echo(json.dumps(data.get("usage", {}), indent=2, sort_keys=True))


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    except VerdocError as exc:
        click.echo(f"{type(exc).__name__}: {exc}", err=True)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
