"""Serializer field-drift pass (``field-drift``, ``mutable-default-arg``).

The bug class this pass exists for: a dataclass grows a field, but one of
its hand-written serializers — ``to_dict``/``from_dict`` methods, paired
``*_to_dict``/``*_from_dict`` module functions, or an accumulating
``merge()`` — is not updated, and the field is *silently dropped* on one
side of a round-trip.  PR 7 shipped exactly this bug: the hit/miss
counters of the forbidden-between memo on ``EnumerationStats`` vanished on
the memo-store path because ``stats_to_dict`` predated them.  (Both
counters were later deleted as dead: no search path ever queried the memo
they counted.)

For every dataclass in a module, the pass discovers its serializers:

* methods named ``to_dict`` / ``from_dict`` / ``to_payload`` /
  ``from_payload`` / ``merge`` defined on the dataclass itself;
* module-level functions matching ``*_to_dict`` / ``*_from_dict`` /
  ``*_to_wire`` / ``*_from_wire`` whose parameter or return annotation
  names the dataclass.

and statically computes the set of fields each serializer *mentions*:
attribute reads on the serialized object (``stats.lt_calls``, ``self.x``,
``other.x``), string-literal keys (dict displays, ``data["k"]``,
``data.get("k")``), and keyword arguments of calls to the dataclass
constructor (``cls(...)`` / ``ClassName(...)``).  A serializer that
iterates ``dataclasses.fields(...)`` is generically complete and passes by
construction.  Any dataclass field missing from a serializer's mention set
is reported.

``mutable-default-arg`` is the companion rule: a function parameter whose
default is a mutable display or constructor (``def f(x=[])``) aliases one
object across every call — the same silent-state-sharing family.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from ..diagnostics import Diagnostic
from ..engine import FileContext
from .base import (
    FilePass,
    annotation_names,
    dataclass_fields,
    dotted_name,
    is_dataclass_def,
)

#: Method names treated as serializers when defined on the dataclass.
SERIALIZER_METHODS = frozenset(
    {"to_dict", "from_dict", "to_payload", "from_payload", "merge"}
)

#: Module-level function name suffixes treated as serializers when an
#: annotation ties them to the dataclass.
SERIALIZER_SUFFIXES = ("_to_dict", "_from_dict", "_to_wire", "_from_wire")

#: Mutable default-argument constructors.
_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "OrderedDict", "defaultdict", "deque", "bytearray"}
)


def _uses_dataclass_fields_introspection(func: ast.AST) -> bool:
    """``True`` when the function iterates ``dataclasses.fields(...)``."""
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None and name.split(".")[-1] == "fields":
                return True
    return False


def _object_params(
    func: ast.FunctionDef, class_name: Optional[str], is_method: bool
) -> Set[str]:
    """Parameter names holding an instance of the serialized dataclass."""
    params: Set[str] = set()
    args = func.args
    all_args = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    if is_method and all_args:
        first = all_args[0].arg
        if first in ("self", "cls"):
            params.add(first)
            # ``merge(self, other)`` reads fields off both sides.
    for arg in all_args:
        if class_name is not None and class_name in annotation_names(
            arg.annotation
        ):
            params.add(arg.arg)
    return params


def _mentioned_fields(
    func: ast.FunctionDef, class_name: str, object_params: Set[str]
) -> Set[str]:
    """Every dataclass field name the serializer's body touches."""
    mentioned: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id in object_params:
                mentioned.add(node.attr)
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    mentioned.add(key.value)
        elif isinstance(node, ast.Subscript):
            index = node.slice
            if isinstance(index, ast.Constant) and isinstance(index.value, str):
                mentioned.add(index.value)
        elif isinstance(node, ast.Call):
            callee = dotted_name(node.func)
            if callee is not None:
                tail = callee.split(".")[-1]
                root = callee.split(".")[0]
                if tail in ("get", "pop", "setdefault") and node.args:
                    first = node.args[0]
                    if isinstance(first, ast.Constant) and isinstance(
                        first.value, str
                    ):
                        mentioned.add(first.value)
                if root == class_name or callee in ("cls", class_name):
                    for keyword in node.keywords:
                        if keyword.arg is not None:
                            mentioned.add(keyword.arg)
    return mentioned


class FieldDriftPass(FilePass):
    name = "field-drift"
    rules = ("field-drift", "mutable-default-arg")
    rule_descriptions = {
        "field-drift": (
            "a dataclass field is missing from a paired hand-written "
            "serializer (to_dict/from_dict/merge/wire) and would be "
            "silently dropped in a round-trip"
        ),
        "mutable-default-arg": (
            "a function parameter defaults to a shared mutable object "
            "(list/dict/set display or constructor)"
        ),
    }

    def check_file(self, ctx: FileContext) -> List[Diagnostic]:
        diagnostics: List[Diagnostic] = []
        classes: Dict[str, ast.ClassDef] = {
            node.name: node
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ClassDef)
        }
        for class_name, class_node in classes.items():
            if not is_dataclass_def(class_node):
                continue
            fields = {name for name, _ in dataclass_fields(class_node)}
            if not fields:
                continue
            for func, is_method in self._serializers(ctx, class_node):
                diagnostics.extend(
                    self._check_serializer(
                        ctx, class_name, fields, func, is_method
                    )
                )
        diagnostics.extend(self._check_mutable_defaults(ctx))
        return diagnostics

    # ------------------------------------------------------------------ #
    def _serializers(self, ctx: FileContext, class_node: ast.ClassDef):
        """Yield ``(function, is_method)`` serializer pairs of the class."""
        for statement in class_node.body:
            if (
                isinstance(statement, ast.FunctionDef)
                and statement.name in SERIALIZER_METHODS
            ):
                yield statement, True
        for statement in ctx.tree.body:
            if not isinstance(statement, ast.FunctionDef):
                continue
            if not statement.name.endswith(SERIALIZER_SUFFIXES):
                continue
            referenced: Set[str] = set()
            for arg in (
                list(statement.args.posonlyargs)
                + list(statement.args.args)
                + list(statement.args.kwonlyargs)
            ):
                referenced.update(annotation_names(arg.annotation))
            referenced.update(annotation_names(statement.returns))
            if class_node.name in referenced:
                yield statement, False

    def _check_serializer(
        self,
        ctx: FileContext,
        class_name: str,
        fields: Set[str],
        func: ast.FunctionDef,
        is_method: bool,
    ) -> List[Diagnostic]:
        if _uses_dataclass_fields_introspection(func):
            return []  # derived from fields(...): complete by construction
        params = _object_params(func, class_name, is_method)
        mentioned = _mentioned_fields(func, class_name, params)
        missing = sorted(fields - mentioned)
        return [
            ctx.diagnostic(
                "field-drift",
                func,
                f"field {field!r} of dataclass {class_name!r} is not "
                f"handled by serializer {func.name!r}",
                hint=(
                    f"add {field!r} to {func.name!r} (or derive it from "
                    "dataclasses.fields() so new fields can never be dropped)"
                ),
            )
            for field in missing
        ]

    # ------------------------------------------------------------------ #
    def _check_mutable_defaults(self, ctx: FileContext) -> List[Diagnostic]:
        diagnostics: List[Diagnostic] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
                if isinstance(default, ast.Call):
                    callee = dotted_name(default.func)
                    if (
                        callee is not None
                        and callee.split(".")[-1] in _MUTABLE_CALLS
                    ):
                        mutable = True
                if mutable:
                    diagnostics.append(
                        ctx.diagnostic(
                            "mutable-default-arg",
                            default,
                            f"parameter default of {node.name!r} is a shared "
                            "mutable object, aliased across every call",
                            hint="default to None and construct inside the body",
                        )
                    )
        return diagnostics
