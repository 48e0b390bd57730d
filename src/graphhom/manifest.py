"""Run manifests: digests tie every output file to the run that produced it.

The digest covers command, arguments, seed, tool version and input digests;
wall-clock timestamps are recorded in the manifest but excluded from the
digest so reruns land in the same directory with identical result bytes.
"""

from __future__ import annotations

import datetime
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .io import dump_json, open_input


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open_input(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    args: dict
    seed: int | None = None
    version: str = __version__
    input_digests: dict = field(default_factory=dict)
    started: str = ""
    finished: str = ""

    @classmethod
    def create(cls, command: str, args: dict, seed: int | None, inputs=()) -> "RunManifest":
        return cls(
            command=command,
            args={k: args[k] for k in sorted(args)},
            seed=seed,
            input_digests={str(p): file_digest(p) for p in inputs},
            started=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        )

    @property
    def digest(self) -> str:
        stable = {
            "command": self.command,
            "args": self.args,
            "seed": self.seed,
            "version": self.version,
            "inputs": self.input_digests,
        }
        return hashlib.sha256(dump_json(stable).encode()).hexdigest()[:16]

    def run_dir(self, out_dir) -> Path:
        return Path(out_dir) / f"{self.command}-{self.digest}"

    def finish(self) -> None:
        self.finished = datetime.datetime.now(datetime.timezone.utc).isoformat()

    def write(self, out_dir) -> Path:
        directory = self.run_dir(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "command": self.command,
            "args": self.args,
            "seed": self.seed,
            "version": self.version,
            "inputs": self.input_digests,
            "digest": self.digest,
            "timestamps": {"started": self.started, "finished": self.finished},
        }
        path = directory / "manifest.json"
        with open(path, "w") as fh:
            fh.write(dump_json(payload))
        return directory
