"""Output-directory conflict policy + collision rename-sequence (reference S6/U4).

The reference's ``OutputPathResolver`` (app.py:2470-2529), when the target
exists and overwrite is off, probes a ``_001`` … ``_9999`` rename sequence
before giving up. ``make_output_dir`` re-expresses that for a directory
sink: ``overwrite`` clears a non-empty target (refusing to delete a plain
file), ``fail`` refuses a non-empty target, and ``rename`` probes
``<name>_001`` … ``<name>_9999`` for the first unused name, raising on
exhaustion exactly like the reference (app.py:2519-2529).
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

ON_CONFLICT_OVERWRITE = "overwrite"
ON_CONFLICT_FAIL = "fail"
ON_CONFLICT_RENAME = "rename"

_RENAME_LIMIT = 9999


def make_output_dir(base: Union[str, Path], on_conflict: str = ON_CONFLICT_RENAME) -> Path:
    """Pick the final output directory under the conflict policy.

    A directory counts as a conflict only when it exists AND is non-empty
    (an empty dir left by mkdir is reusable); an existing FILE at a
    candidate path is always a conflict. ``overwrite`` CLEARS a non-empty
    directory here (not in the caller) so every entry point gets the same
    no-stale-output guarantee, but refuses to delete a file target. The
    rename sequence probes ``<name>_001`` … ``<name>_9999``, first unused
    wins; exhaustion raises RuntimeError (reference app.py:2519-2529).
    """
    if on_conflict not in (ON_CONFLICT_OVERWRITE, ON_CONFLICT_FAIL, ON_CONFLICT_RENAME):
        raise ValueError(f"unknown on_conflict policy: {on_conflict!r}")
    base = Path(base)

    def _clear(p: Path) -> bool:
        # a file target is never "clear" (iterdir would raise on it)
        return not p.exists() or (p.is_dir() and not any(p.iterdir()))

    if on_conflict == ON_CONFLICT_OVERWRITE:
        if not _clear(base):
            if not base.is_dir():
                raise FileExistsError(
                    f"output path {base} exists and is not a directory"
                )
            import shutil

            shutil.rmtree(base)
        return base
    if _clear(base):
        return base
    if on_conflict == ON_CONFLICT_FAIL:
        what = "is not a directory" if not base.is_dir() else "is not empty"
        raise FileExistsError(f"output path {base} {what}")
    for i in range(1, _RENAME_LIMIT + 1):
        cand = base.with_name(f"{base.name}_{i:03d}")
        if _clear(cand):
            return cand
    raise RuntimeError(
        f"could not allocate a rename-sequence output dir ({base.name}_001"
        f"..{base.name}_{_RENAME_LIMIT} all taken)"
    )
