"""Trace export/import, spec files, report formatting."""

from .specio import (
    dump_toml,
    load_experiment,
    load_spec,
    save_experiment,
    save_spec,
)
from .csvio import (
    export_result,
    export_traces,
    import_traces,
)
from .report import (
    format_duration,
    format_key_values,
    format_markdown_table,
    format_sweep_progress,
    format_sweep_value,
    format_table,
)

__all__ = [
    "load_spec",
    "save_spec",
    "load_experiment",
    "save_experiment",
    "dump_toml",
    "export_result",
    "export_traces",
    "import_traces",
    "format_duration",
    "format_key_values",
    "format_markdown_table",
    "format_sweep_progress",
    "format_sweep_value",
    "format_table",
]
