"""An in-process queue worker fleet for sweep tests."""

import contextlib
import threading

from repro.dist.worker import worker_loop


@contextlib.contextmanager
def worker_threads(store_url: str, n_workers: int = 2):
    """Run ``n_workers`` queue workers as daemon threads for the block."""
    stop = threading.Event()
    workers = [
        threading.Thread(
            target=worker_loop,
            args=(store_url,),
            kwargs=dict(
                worker_id=f"w{i}", lease_s=5.0, poll_s=0.05, stop=stop.is_set
            ),
            daemon=True,
        )
        for i in range(n_workers)
    ]
    for worker in workers:
        worker.start()
    try:
        yield
    finally:
        stop.set()
        for worker in workers:
            worker.join(timeout=10.0)
