"""Filesystem indirection for the lineage/commit surfaces.

The runs directory, partition manifests and label-index files are documented
to live on SHARED storage in a multi-node deployment (the external-shuffle
layout of ``materialize_triples``; SURVEY §3.3).  Every function here takes
``fs: pyarrow.fs.FileSystem | None``:

* ``None`` (the default everywhere) — the pure-POSIX fast path the
  single-node benchmarks run: ``os.replace`` renames (atomic), memory-mapped
  IPC reads (zero-copy), direct ``open``.
* a ``pyarrow.fs.FileSystem`` — all I/O routes through the fs API, so the
  same code runs against any Arrow-supported backend (S3/GCS/HDFS/mock).
  pyarrow filesystems pickle, so the object ships into Ray tasks with the
  closure.  ``pyarrow.fs.SubTreeFileSystem`` doubles as the prefix-rewriting
  test double.

Atomicity note: on POSIX (``LocalFileSystem``/``SubTreeFileSystem`` over
local) ``move`` is rename(2) — same guarantee as the fast path.  On object
stores a move is copy+delete, so the commit protocol degrades to
"manifest object appears at most once, possibly torn" — which the read side
already tolerates (``materialize.manifest_ids`` skips unparseable
manifests, and data directories are re-derived from manifests,
never trusted bare).
"""

from __future__ import annotations

import json
import os
import shutil


def makedirs(fs, path: str) -> None:
    if fs is None:
        os.makedirs(path, exist_ok=True)
    else:
        fs.create_dir(path, recursive=True)


def rmtree(fs, path: str) -> None:
    if fs is None:
        shutil.rmtree(path, ignore_errors=True)
    else:
        try:
            fs.delete_dir(path)
        except (FileNotFoundError, OSError):
            pass


def isdir(fs, path: str) -> bool:
    if fs is None:
        return os.path.isdir(path)
    from pyarrow.fs import FileType

    return fs.get_file_info(path).type == FileType.Directory


def exists(fs, path: str) -> bool:
    if fs is None:
        return os.path.exists(path)
    from pyarrow.fs import FileType

    return fs.get_file_info(path).type != FileType.NotFound


def listdir(fs, path: str) -> list[str]:
    """Base names of direct children ('' on a missing dir)."""
    if fs is None:
        try:
            return sorted(os.listdir(path))
        except FileNotFoundError:
            return []
    from pyarrow.fs import FileSelector

    try:
        infos = fs.get_file_info(FileSelector(path, recursive=False))
    except (FileNotFoundError, OSError):
        return []
    return sorted(i.base_name for i in infos)


def remove(fs, path: str) -> None:
    if fs is None:
        os.remove(path)
    else:
        fs.delete_file(path)


def move(fs, src: str, dst: str) -> None:
    """Rename, replacing a FILE at dst (callers delete directory targets
    first — both code paths refuse an implicit recursive clobber)."""
    if fs is None:
        os.replace(src, dst)
    else:
        fs.move(src, dst)


def size(fs, path: str) -> int:
    if fs is None:
        return os.path.getsize(path)
    return int(fs.get_file_info(path).size or 0)


def stamp(fs, path: str) -> tuple | None:
    """A file's version: (mtime_ns, inode) on POSIX, where an atomic rename
    gives a rewritten file a new inode; (mtime_ns, size) through ``fs``,
    which exposes no inode.  None for a missing file."""
    if fs is None:
        try:
            st = os.stat(path)
        except OSError:
            return None
        return st.st_mtime_ns, st.st_ino
    from pyarrow.fs import FileType

    info = fs.get_file_info(path)
    if info.type == FileType.NotFound:
        return None
    return info.mtime_ns, info.size


def write_json_atomic(fs, path: str, obj: dict) -> None:
    data = json.dumps(obj).encode()
    tmp = path + ".tmp"
    if fs is None:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    else:
        with fs.open_output_stream(tmp) as fh:
            fh.write(data)
        fs.move(tmp, path)


def read_json(fs, path: str) -> dict | None:
    try:
        if fs is None:
            with open(path, "rb") as fh:
                return json.loads(fh.read())
        with fs.open_input_stream(path) as fh:
            return json.loads(fh.read())
    except (FileNotFoundError, OSError, ValueError):
        return None


def open_output(fs, path: str):
    """Writable (buffered) output stream."""
    if fs is None:
        import pyarrow as pa

        return pa.OSFile(path, "wb")
    return fs.open_output_stream(path)


def open_input(fs, path: str):
    """Random-access input file — memory-mapped on the POSIX fast path
    (zero-copy IPC reads), fs-API handle otherwise."""
    if fs is None:
        import pyarrow as pa

        return pa.memory_map(path)
    return fs.open_input_file(path)


def write_parquet(fs, table, path: str) -> None:
    import pyarrow.parquet as pq

    if fs is None:
        pq.write_table(table, path)
    else:
        pq.write_table(table, path, filesystem=fs)


def read_parquet(fs, path: str, columns=None):
    import pyarrow.parquet as pq

    if fs is None:
        return pq.read_table(path, columns=columns)
    return pq.read_table(path, columns=columns, filesystem=fs)
