"""The committed docs stay in sync with the code."""

import pathlib
import re

from repro.transform import all_transformations, library_size

DOCS = pathlib.Path(__file__).resolve().parents[1] / "docs"


def test_transformation_catalog_lists_every_transform():
    text = (DOCS / "transformations.md").read_text()
    for transformation in all_transformations():
        assert f"`{transformation.name}`" in text, transformation.name


def test_transformation_catalog_total_current():
    text = (DOCS / "transformations.md").read_text()
    match = re.search(r"\*\*(\d+) transformations", text)
    assert match and int(match.group(1)) == library_size()


def test_isdl_reference_exists_and_covers_constructs():
    text = (DOCS / "isdl.md").read_text()
    for construct in (
        "repeat",
        "exit_when",
        "input",
        "output",
        "assert",
        "Mb[",
        "<15:0>",
        ": integer",
    ):
        assert construct in text, construct


def test_isdl_docs_cover_execution_engines():
    from repro.semantics.engine import ENGINE_NAMES, GATE_MODES

    text = (DOCS / "isdl.md").read_text()
    assert "## Execution engines" in text
    for name in ENGINE_NAMES:
        assert f"`{name}`" in text, name
    for mode in GATE_MODES:
        assert f'gate="{mode}"' in text, mode


def test_transcripts_cover_every_analysis():
    from repro import analyses

    text = (DOCS / "analysis_transcripts.md").read_text()
    for module in analyses.TABLE2 + analyses.FAILURES + analyses.EXTENSIONS:
        name = module.__name__.rsplit(".", 1)[-1]
        assert f"`{name}`" in text, name


def test_lint_docs_cover_every_diagnostic_code():
    from repro.lint import CODES

    text = (DOCS / "lint.md").read_text()
    for code, summary in CODES.items():
        # Each code gets its own heading carrying the registry summary,
        # so the docs cannot drift from the CODES table.
        assert f"### `{code}` — {summary}" in text, code


def test_lint_docs_mention_only_registered_codes():
    from repro.lint import CODES

    text = (DOCS / "lint.md").read_text()
    for code in re.findall(r"### `([WE]\d{3})`", text):
        assert code in CODES, code


def test_provenance_docs_cover_schemas_and_layout():
    from repro.provenance import ANALYSIS_TRACE_SCHEMA, STORE_SCHEMA
    from repro.transform.engine import TRACE_SCHEMA

    text = (DOCS / "provenance.md").read_text()
    for tag in (ANALYSIS_TRACE_SCHEMA, STORE_SCHEMA, TRACE_SCHEMA):
        assert f"`{tag}`" in text, tag
    for table in ("`objects`", "`pointers`"):
        assert f"| {table} |" in text, table


def test_provenance_docs_cover_every_key_component():
    from repro.provenance import verdict_key

    text = (DOCS / "provenance.md").read_text()
    key = verdict_key("x", "a" * 64, "b" * 64, "interp", 1, 1, True)
    for component in key:
        assert f"`{component}`" in text, component


def test_provenance_docs_cover_cli_and_defaults():
    from repro.provenance import DEFAULT_STORE_DIR, STORE_ENV_VAR

    text = (DOCS / "provenance.md").read_text()
    for needle in (
        "repro trace",
        "repro replay",
        "--no-cache",
        "--cache-dir",
        f"${STORE_ENV_VAR}",
        f"`{DEFAULT_STORE_DIR}`",
        "ReplayDivergenceError",
        "(source description)",
    ):
        assert needle in text, needle


def test_design_doc_covers_provenance_layer():
    design = DOCS.parent / "DESIGN.md"
    text = design.read_text()
    assert "## 8. Replayable transformation provenance" in text
    for needle in (
        "code epoch",
        "ReplayDivergenceError",
        "`repro.analysis-trace/1`",
        "docs/provenance.md",
    ):
        assert needle in text, needle


def test_observability_docs_cover_every_metric_family():
    from repro import obs

    text = (DOCS / "observability.md").read_text()
    for name in list(obs.COUNTERS) + list(obs.GAUGES) + list(obs.HISTOGRAMS):
        assert f"`{name}`" in text, name


def test_observability_docs_mention_only_declared_families():
    from repro import obs

    declared = set(obs.COUNTERS) | set(obs.GAUGES) | set(obs.HISTOGRAMS)
    text = (DOCS / "observability.md").read_text()
    for name in re.findall(r"`(repro_[a-z0-9_]+)`", text):
        assert name in declared, name


def test_observability_docs_cover_every_span_phase():
    from repro import obs

    text = (DOCS / "observability.md").read_text()
    for phase in obs.SPAN_PHASES:
        assert f"| `{phase}` |" in text, phase


def test_observability_docs_cover_schema_and_entry_points():
    from repro import obs

    text = (DOCS / "observability.md").read_text()
    for needle in (
        f"`{obs.METRICS_SCHEMA}`",
        "repro stats",
        "--metrics-out",
        "--format prom",
        "`repro.obs.collecting()`",
        "job-local registry",
    ):
        assert needle in text, needle


def test_api_docs_cover_every_facade_name():
    from repro import api

    text = (DOCS / "api.md").read_text()
    for name in api.__all__:
        assert f"`{name}" in text, name


def test_api_docs_cover_every_runconfig_field():
    import dataclasses

    from repro.analysis.config import RunConfig

    text = (DOCS / "api.md").read_text()
    for field in dataclasses.fields(RunConfig):
        assert f"`{field.name}`" in text, field.name


def test_api_docs_cover_migration_contract():
    # The plan is one RunConfig per entry point (the per-field keyword
    # aliases are gone), and a config checks its own fields.
    text = (DOCS / "api.md").read_text()
    assert "Migration from legacy keywords" not in text
    assert "DeprecationWarning" not in text
    for needle in (
        "### Checks",
        "ValueError",
        "`trials=0, verify=False`",
        "run_batch",
        "verify_binding",
        "run_bench",
        "byte-identical",
    ):
        assert needle in text, needle


def test_design_doc_covers_observability_layer():
    design = DOCS.parent / "DESIGN.md"
    text = design.read_text()
    assert "## 9. Observability and the typed facade" in text
    for needle in (
        "`repro.metrics/1`",
        "job-local registry",
        "RunConfig",
        "repro.operations",
        "docs/observability.md",
        "docs/api.md",
        "repro_provenance_hit_rate",
    ):
        assert needle in text, needle


def test_service_docs_cover_every_endpoint():
    from repro.service.server import ENDPOINTS

    text = (DOCS / "service.md").read_text()
    for endpoint in ENDPOINTS:
        assert f"`/{endpoint}`" in text, endpoint


def test_service_docs_rows_match_the_operation_table():
    import re

    from repro.operations import ROUTES

    text = (DOCS / "service.md").read_text()
    for path, op in ROUTES.items():
        (row,) = [
            line for line in text.splitlines()
            if line.startswith(f"| `{path}` |")
        ]
        _, _, methods, body, _, _ = row.split("|")
        assert methods.strip() == "/".join(op.http.methods), path
        documented = {
            name: optional == "?"
            for name, optional in re.findall(r'"(\w+)"(\??)', body)
        }
        declared = {
            param.name: not param.required for param in op.http.fields
        }
        assert documented == declared, path


def test_service_docs_cover_contracts_and_bench_schema():
    from repro.service.loadtest import BENCH_SCHEMA

    text = (DOCS / "service.md").read_text()
    for needle in (
        "repro serve",
        "repro loadtest",
        "`429` +\n`Retry-After: 1`",
        "`504`",
        "--queue-limit",
        "--timeout",
        f"`{BENCH_SCHEMA}`",
        "BENCH_service.json",
        "repro_pool_spawn_total",
        "repro_pool_reuse_total",
        "repro_service_rejected_total",
        "PersistentPool",
    ):
        assert needle in text, needle


def test_provenance_docs_cover_storage_backends():
    # One store per root, shared by every front end; no second layout.
    from repro.provenance import STORE_FILENAME

    text = (DOCS / "provenance.md").read_text()
    assert "## Storage" in text
    for needle in (
        f"`<root>/{STORE_FILENAME}`",
        "one transaction",
        "`busy_timeout`",
        "recomputed into `store.sqlite`",
    ):
        assert needle in text, needle
    for gone in ("--store-backend", "store_backend", "migrate_store", "StoreBackend"):
        assert gone not in text, gone


def test_design_doc_covers_service_layer():
    design = DOCS.parent / "DESIGN.md"
    text = design.read_text()
    assert "## 11. Analysis as a service" in text
    for needle in (
        "PersistentPool",
        "`<root>/store.sqlite`",
        "repro_pool_spawn_total",
        "repro_pool_reuse_total",
        "`429`",
        "`504`",
        "BENCH_service.json",
        "docs/service.md",
        "docs/provenance.md",
    ):
        assert needle in text, needle


def test_machines_docs_cover_every_spec_and_kind():
    from repro.machines.registry import all_specs
    from repro.machines.specsim import KINDS

    text = (DOCS / "machines.md").read_text()
    for spec in all_specs():
        assert f'"{spec.key}"' in text or spec.name in text, spec.key
    # The walkthrough must name the kinds the extension machines use,
    # so the doc cannot drift from the kind library's vocabulary.
    for kind in ("rep_move", "rep_scan", "mem_compare_step", "test_and_set"):
        assert kind in KINDS, kind
        assert f"`{kind}`" in text, kind


def test_machines_docs_cover_surfaces_and_validation():
    text = (DOCS / "machines.md").read_text()
    for needle in (
        "repro machines",
        "`api.machines()`",
        "`repro_machine_coverage`",
        "MachineSpec",
        "spec_simulator",
        "validate_spec",
        "validate_descriptions",
        "FuzzCase",
        "exact field paths",
        "byte-identical",
    ):
        assert needle in text, needle


def test_design_doc_covers_machine_spec_layer():
    design = DOCS.parent / "DESIGN.md"
    text = design.read_text()
    assert "## 12. Declarative machine specs" in text
    for needle in (
        "MachineSpec",
        "spec_simulator",
        "kind library",
        "CostSpec",
        "validate_descriptions",
        "repro_machine_coverage",
        "docs/machines.md",
        "object-equal",
        "zero new simulator code",
    ):
        assert needle in text, needle
