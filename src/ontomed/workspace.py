"""On-disk workspace: the ontology dataset plus wrapper data bindings.

A workspace directory holds ``ontology.quads`` (the serialized dataset) and
``bindings.json`` (wrapper name to data file). Data file paths resolve
relative to the workspace directory unless absolute. Both files are written
through a temporary file and a rename, never in place, and ``bindings.json``
only when its text changes. A command that loads, modifies and saves the
workspace holds an exclusive ``fcntl.flock`` on ``ontomed.lock`` meanwhile
(POSIX only), so two such commands run one after the other instead of one
losing the other's update; readers take no lock.
"""

from __future__ import annotations

import fcntl
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .errors import UnboundWrapper, WorkspaceError
from .executor import WrapperBinding
from .quadstore import Dataset, write_replacing
from .sources import wrapper_schemas

ONTOLOGY_FILE = "ontology.quads"
BINDINGS_FILE = "bindings.json"
LOCK_FILE = "ontomed.lock"


@dataclass
class Workspace:
    root: Path
    dataset: Dataset
    data_files: dict[str, str] = field(default_factory=dict)
    # The text of bindings.json as loaded or last saved; None before either.
    bindings_text: str | None = field(default=None, repr=False, compare=False)

    @classmethod
    def init(cls, root: str | Path, global_quads: str | Path) -> "Workspace":
        """Create a workspace whose dataset starts from a quad file."""
        root = Path(root)
        if (root / ONTOLOGY_FILE).exists():
            raise WorkspaceError(f"{root}: workspace already initialized")
        try:
            ds = Dataset.load(global_quads)
        except FileNotFoundError as exc:
            raise WorkspaceError(f"cannot read quad file {global_quads}") from exc
        root.mkdir(parents=True, exist_ok=True)
        ws = cls(root=root, dataset=ds)
        ws.save()
        return ws

    @classmethod
    def load(cls, root: str | Path) -> "Workspace":
        root = Path(root)
        ds = Dataset.load(_ontology_path(root))
        bindings_path = root / BINDINGS_FILE
        data_files, text = {}, None
        if bindings_path.exists():
            try:
                text = bindings_path.read_text(encoding="utf-8-sig")
                data_files = json.loads(text)
            # json.loads raises RecursionError on arrays or objects nested too deep.
            except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
                raise WorkspaceError(f"{bindings_path}: malformed bindings file: {exc}") from None
            if not (isinstance(data_files, dict)
                    and all(isinstance(v, str) for v in data_files.values())):
                raise WorkspaceError(
                    f"{bindings_path}: expected an object mapping wrapper names to data files")
            unfit = next((v for v in data_files.values() if not _os_path(v)), None)
            if unfit is not None:
                raise WorkspaceError(f"{bindings_path}: the OS cannot take the data file path "
                                     f"{unfit!r}")
        return cls(root=root, dataset=ds, data_files=data_files, bindings_text=text)

    @classmethod
    @contextmanager
    def locked(cls, root: str | Path) -> Iterator["Workspace"]:
        """The workspace, loaded under an exclusive lock held until the block
        ends; the block saves what it changes."""
        root = Path(root)
        _ontology_path(root)
        path = root / LOCK_FILE
        try:
            fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        except OSError as exc:
            raise WorkspaceError(f"cannot create lock file {path}: {exc.strerror}") from None
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield cls.load(root)
        finally:
            os.close(fd)        # closing the descriptor releases the lock

    def save(self) -> None:
        """Replace the quads first, then the bindings if their text changed.

        Each file is replaced whole, so a failure between the two leaves the
        new quads with the old bindings. Every command loads that workspace:
        quads are only ever added, so the new quads still register every
        wrapper the old bindings name.
        """
        self.dataset.save(self.root / ONTOLOGY_FILE)
        text = json.dumps(self.data_files, indent=2, sort_keys=True) + "\n"
        if text != self.bindings_text:
            write_replacing(self.root / BINDINGS_FILE, text)
            self.bindings_text = text

    def bind(self, wrapper_name: str, data_file: str) -> None:
        self.data_files[wrapper_name] = data_file

    def bindings(self) -> dict[str, WrapperBinding]:
        """Executor bindings for every wrapper with a data file."""
        catalog = wrapper_schemas(self.dataset)
        out = {}
        for name, rel_path in self.data_files.items():
            schema = catalog.get(name)
            if schema is None:
                raise UnboundWrapper(f"bound wrapper {name} is not registered in the ontology")
            path = Path(rel_path)
            if not path.is_absolute():
                path = self.root / path
            out[name] = WrapperBinding(wrapper=schema, data_path=path)
        return out


def _os_path(path: str) -> bool:
    """True iff the OS can take the path: it holds no NUL character, and
    the file system encoding encodes it. A JSON escape can name a lone
    surrogate, which it does not, unless its error handler maps it to a
    byte."""
    try:
        os.fsencode(path)
    except UnicodeEncodeError:
        return False
    return "\0" not in path


def _ontology_path(root: Path) -> Path:
    ontology = root / ONTOLOGY_FILE
    if not ontology.exists():
        raise WorkspaceError(f"{root}: not a workspace (missing {ONTOLOGY_FILE})")
    return ontology
