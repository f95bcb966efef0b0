"""On-disk workspace: the ontology dataset plus wrapper data bindings.

A workspace directory holds ``ontology.quads`` (the serialized dataset) and
``bindings.json`` (wrapper name to data file). Data file paths resolve
relative to the workspace directory unless absolute. Both files are written
through a temporary file and a rename, never in place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import UnboundWrapper, WorkspaceError
from .executor import WrapperBinding
from .quadstore import Dataset, write_replacing
from .sources import wrapper_schemas

ONTOLOGY_FILE = "ontology.quads"
BINDINGS_FILE = "bindings.json"


@dataclass
class Workspace:
    root: Path
    dataset: Dataset
    data_files: dict[str, str] = field(default_factory=dict)

    @classmethod
    def init(cls, root: str | Path, global_quads: str | Path) -> "Workspace":
        """Create a workspace whose dataset starts from a quad file."""
        root = Path(root)
        if (root / ONTOLOGY_FILE).exists():
            raise WorkspaceError(f"{root}: workspace already initialized")
        root.mkdir(parents=True, exist_ok=True)
        try:
            ds = Dataset.load(global_quads)
        except FileNotFoundError as exc:
            raise WorkspaceError(f"cannot read quad file {global_quads}") from exc
        ws = cls(root=root, dataset=ds)
        ws.save()
        return ws

    @classmethod
    def load(cls, root: str | Path) -> "Workspace":
        root = Path(root)
        ontology = root / ONTOLOGY_FILE
        if not ontology.exists():
            raise WorkspaceError(f"{root}: not a workspace (missing {ONTOLOGY_FILE})")
        ds = Dataset.load(ontology)
        bindings_path = root / BINDINGS_FILE
        data_files = {}
        if bindings_path.exists():
            try:
                data_files = json.loads(bindings_path.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise WorkspaceError(f"{bindings_path}: malformed bindings file: {exc}") from None
            # The OS refuses a path holding a NUL character.
            if not (isinstance(data_files, dict)
                    and all(isinstance(v, str) and "\0" not in v for v in data_files.values())):
                raise WorkspaceError(
                    f"{bindings_path}: expected an object mapping wrapper names to data files")
        return cls(root=root, dataset=ds, data_files=data_files)

    def save(self) -> None:
        """Replace the quads first, then the bindings.

        Each file is replaced whole, so a failure between the two leaves the
        new quads with the old bindings. Every command loads that workspace:
        quads are only ever added, so the new quads still register every
        wrapper the old bindings name.
        """
        self.dataset.save(self.root / ONTOLOGY_FILE)
        write_replacing(self.root / BINDINGS_FILE,
                        json.dumps(self.data_files, indent=2, sort_keys=True) + "\n")

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
