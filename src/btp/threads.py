"""The thread policy of btp's pools: ``BTP_THREADS`` caps each one, and
numpy's OpenBLAS runs on one thread inside them, so that no result depends
on the BLAS thread count."""

from __future__ import annotations

import concurrent.futures
import contextlib
import ctypes
import functools
import os

from .errors import ValidationError


def thread_count() -> int:
    """``BTP_THREADS``, or one thread per usable CPU when it is unset."""
    raw = os.environ.get("BTP_THREADS", "").strip()
    if not raw:  # not every platform has the affinity call
        usable = getattr(os, "sched_getaffinity", None)
        return len(usable(0)) if usable else os.cpu_count() or 1
    try:
        count = int(raw)
    except ValueError as exc:
        raise ValidationError(f"BTP_THREADS must be an integer, got {raw!r}") from exc
    if count < 1:
        raise ValidationError(f"BTP_THREADS must be >= 1, got {count}")
    return count


@functools.cache
def openblas_thread_setter():
    """``openblas_set_num_threads_local`` of the OpenBLAS numpy loaded, or None.

    The call takes a thread count and returns the previous one.  Its name
    promises the calling thread only, but in pthreads builds (numpy's wheels
    among them) it sets the count of the whole process.  The library is
    found among the files this process has mapped; None when there is no
    such list (not Linux), no OpenBLAS, or an OpenBLAS older than the call
    (0.3.27).
    """
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return None
    paths = {f[5].rstrip("\n") for f in fields if len(f) == 6}
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
        try:
            # RTLD_NOLOAD: only a library already loaded, never a second copy
            setter = ctypes.CDLL(path, mode=os.RTLD_NOLOAD).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        return setter
    return None


@contextlib.contextmanager
def pinned_pool(workers: int):
    """A ``ThreadPoolExecutor`` of ``workers`` threads whose BLAS runs on one.

    The pin is set in the caller and in each worker, so it holds whether the
    setter acts on a thread or on the process.  On exit, unstarted jobs are
    cancelled and the replaced count is put back.  Without a setter BLAS is
    left alone.
    """
    setter = openblas_thread_setter()
    pool = concurrent.futures.ThreadPoolExecutor(max_workers=workers, initializer=setter,
                                                 initargs=(1,) if setter else ())
    previous = setter(1) if setter else None
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)
        if setter:
            setter(previous)
