"""``repro.compiler``: the unified staged compiler driver.

The paper's software stack (section V-B, Fig. 8) is one coherent
compiler: GCL graph optimization, delegate partitioning, NKL lowering
and scratchpad memory planning feed a single Ncore Loadable.  This
package is that compiler's driver:

- a registry of named :class:`Stage` objects and composable
  :class:`Pipeline` presets (``O0``/``O1``/``O2``);
- per-stage ``repro.obs`` spans and change-stats (nodes folded/fused,
  sweeps to fixed point, SRAM bytes planned) on the
  :class:`CompilerContext`;
- inter-stage verify gates reusing ``repro.analyze``, plus textual IR
  snapshots and diffs for ``repro compile --dump-ir``;
- a content-addressed compile cache (memory + disk) keyed by graph
  structure, weights digest, :class:`~repro.ncore.config.NcoreConfig`
  and pipeline id, so repeat compiles of a zoo model are near-free.

:func:`compile_graph` is the one entry point; its ``.model`` is what
:class:`repro.runtime.NcoreExecutor` loads.  See ``docs/compiler.md``.
"""

from repro.compiler.cache import (
    CacheStats,
    CompileCache,
    get_compile_cache,
    install_cache,
    set_compile_cache,
)
from repro.compiler.driver import (
    CompileResult,
    USE_DEFAULT_CACHE,
    compile_graph,
    optimize_graph,
)
from repro.compiler.fingerprint import (
    CACHE_FORMAT_VERSION,
    compile_key,
    fingerprint_config,
    fingerprint_graph,
)
from repro.compiler.irdump import dump_context, dump_graph, ir_diff
from repro.compiler.pipeline import (
    INPUT_SNAPSHOT,
    Pipeline,
    get_pipeline,
    register_pipeline,
)
from repro.compiler.stages import (
    CompilerContext,
    CompilerError,
    Stage,
    StageStats,
    get_stage,
    optimize_stage,
    register_stage,
)

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CacheStats",
    "CompileCache",
    "CompileResult",
    "CompilerContext",
    "CompilerError",
    "INPUT_SNAPSHOT",
    "Pipeline",
    "Stage",
    "StageStats",
    "USE_DEFAULT_CACHE",
    "compile_graph",
    "compile_key",
    "dump_context",
    "dump_graph",
    "fingerprint_config",
    "fingerprint_graph",
    "get_compile_cache",
    "get_pipeline",
    "get_stage",
    "install_cache",
    "ir_diff",
    "optimize_graph",
    "optimize_stage",
    "register_pipeline",
    "register_stage",
    "set_compile_cache",
]
