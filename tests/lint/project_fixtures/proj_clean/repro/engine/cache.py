"""Lock discipline respected: every access to _data holds the lock."""

import threading


class _Cache:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._data: dict[str, object] = {}

    def put(self, key: str, value: object) -> None:
        with self._lock:
            self._data[key] = value

    def size(self) -> int:
        with self._lock:
            return len(self._data)
