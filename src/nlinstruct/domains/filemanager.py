"""File manager: files inside directories, movable and removable.

A file's kind (TXT, JPG, ...) is expressed through extra ``type`` triples
alongside the entity-type symbol, so both ``R[type].File`` and
``R[type].TXT`` denote through the same relation. Files carry an ``index``
contiguous within their directory.
"""

from __future__ import annotations

import random

from ..errors import DomainLogicError
from ..kb import Entity, IntVal, State, SymVal, TextVal, Triple
from .base import (
    COLLECTION,
    OBJ_ENTITY,
    OBJ_INT,
    OBJ_SYM,
    OBJ_TEXT,
    SINGLE,
    Domain,
    InterfaceMethod,
    MethodCall,
    ParameterSpec,
    RelationSpec,
    by_index,
    int_of,
    reindex,
    the,
    typed_entity,
)

FILE_NAMES = ("report", "budget", "notes", "photo", "song", "essay", "draft", "memo")
DIR_NAMES = ("documents", "pictures", "music", "downloads", "backup")
FILE_KINDS = ("TXT", "JPG", "PDF", "MP3")

DEFAULT_RANGES = {"directories": (2, 3), "files": (2, 6), "size": (1, 500)}
# directories have distinct names
RANGE_LIMITS = {"directories": (0, len(DIR_NAMES))}


def generate_state(rng: random.Random, ranges: dict) -> State:
    n_dirs = rng.randint(*ranges.get("directories", DEFAULT_RANGES["directories"]))
    n_files = rng.randint(*ranges.get("files", DEFAULT_RANGES["files"]))
    size = ranges.get("size", DEFAULT_RANGES["size"])
    entities, triples = [], []
    root, t = typed_entity("d1", "Directory")
    entities.append(root)
    triples += [t, Triple(root, "name", TextVal("home"))]
    dirs = [root]
    for i, dname in enumerate(rng.sample(DIR_NAMES, n_dirs), start=2):
        d, t = typed_entity(f"d{i}", "Directory")
        entities.append(d)
        dirs.append(d)
        triples += [
            t,
            Triple(d, "name", TextVal(dname)),
            Triple(root, "childDirectories", d),
        ]
    counts = {d.id: 0 for d in dirs}
    for i in range(1, n_files + 1):
        f, t = typed_entity(f"f{i}", "File")
        entities.append(f)
        home = rng.choice(dirs)
        counts[home.id] += 1
        triples += [
            t,
            Triple(f, "name", TextVal(rng.choice(FILE_NAMES))),
            Triple(f, "type", SymVal(rng.choice(FILE_KINDS))),
            Triple(f, "sizeInBytes", IntVal(rng.randint(*size))),
            Triple(home, "childFiles", f),
            Triple(f, "index", IntVal(counts[home.id])),
        ]
    return State("file", entities, triples)


def _directory_of(state: State, f: Entity) -> Entity:
    homes = state.subjects("childFiles", f)
    if len(homes) != 1:
        raise DomainLogicError(f"file {f.id} has {len(homes)} parent directories")
    return next(iter(homes))


def logic(state: State, call: MethodCall) -> State:
    files = call.args[0]
    if call.method.name == "removeFiles":
        touched = {_directory_of(state, f) for f in files}
        new = state.without_entities(files)
    else:  # moveFiles(files, directory)
        target = the(call.args[1])
        moving = [f for f in by_index(state, files) if _directory_of(state, f) != target]
        if not moving:
            return state
        touched = {_directory_of(state, f) for f in moving}
        remove, add = [], []
        slot = len(state.objects(target, "childFiles"))
        for f in moving:
            src = _directory_of(state, f)
            remove.append(Triple(src, "childFiles", f))
            remove.append(Triple(f, "index", IntVal(int_of(state, f, "index"))))
            slot += 1
            add.append(Triple(target, "childFiles", f))
            add.append(Triple(f, "index", IntVal(slot)))
        new = state.replace_triples(remove, add)
    # close the index gaps that the files left behind, in one new state
    return reindex(new, *(by_index(new, new.objects(d, "childFiles"))
                          for d in sorted(touched, key=lambda e: e.id)))


def make_domain() -> Domain:
    return Domain(
        id="file",
        entity_types=("Directory", "File"),
        relations={
            "name": RelationSpec("name", OBJ_TEXT, phrases=("named", "called")),
            "type": RelationSpec("type", OBJ_SYM, phrases=("kind",)),
            "sizeInBytes": RelationSpec(
                "sizeInBytes", OBJ_INT, phrases=("size", "largest", "biggest", "smallest")
            ),
            "childFiles": RelationSpec("childFiles", OBJ_ENTITY, object_etype="File"),
            "childDirectories": RelationSpec(
                "childDirectories", OBJ_ENTITY, object_etype="Directory"
            ),
            "index": RelationSpec("index", OBJ_INT, phrases=("position", "first", "last")),
        },
        methods=(
            InterfaceMethod(
                "removeFiles", (ParameterSpec(COLLECTION, etype="File"),), ("delete", "remove")
            ),
            InterfaceMethod(
                "moveFiles",
                (ParameterSpec(COLLECTION, etype="File"), ParameterSpec(SINGLE, etype="Directory")),
                ("move", "transfer"),
            ),
        ),
        enum_symbols=FILE_KINDS,
        logic=logic,
        generate_state=generate_state,
        default_ranges=dict(DEFAULT_RANGES),
        range_limits=RANGE_LIMITS,
    )
