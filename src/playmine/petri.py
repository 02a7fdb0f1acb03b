"""Place/transition nets with markings and firing, and their file formats."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from operator import index
from pathlib import Path
from typing import Iterable, Optional


@dataclass(frozen=True, slots=True)
class Transition:
    name: str
    label: Optional[str] = None  # None marks a silent transition

    @property
    def silent(self) -> bool:
        return self.label is None


def _tokens(marking: Counter) -> Counter:
    """The places of ``marking`` that hold tokens; a count that is not an
    int >= 0 is a ValueError."""
    tokens = Counter()
    for p, n in marking.items():
        try:
            count = index(n)
        except TypeError:
            count = -1
        if count < 0:
            raise ValueError(f"place {p} holds {n!r} tokens, not an int >= 0")
        if count:
            tokens[p] = count
    return tokens


class PetriNet:
    """Immutable net; markings are Counters over place names.  Token counts
    are ints >= 0, transition names are unique and labels are strings or
    None; anything else is a ValueError."""

    def __init__(self, places: Iterable[str], transitions: Iterable[Transition],
                 arcs: Iterable[tuple[str, str]], initial_marking: Counter,
                 final_marking: Counter):
        transitions = list(transitions)
        trans_names = set()
        for t in transitions:
            if t.name in trans_names:
                raise ValueError(f"two transitions are named {t.name}")
            if t.label is not None and not isinstance(t.label, str):
                raise ValueError(f"transition {t.name} has label {t.label!r}, not a string")
            trans_names.add(t.name)
        self.places = tuple(sorted(set(places)))
        self.transitions = tuple(sorted(set(transitions), key=lambda t: t.name))
        self.arcs = tuple(sorted(set(arcs)))
        self.initial_marking = _tokens(initial_marking)
        self.final_marking = _tokens(final_marking)
        if not self.initial_marking or not self.final_marking:
            raise ValueError("initial and final markings must be non-empty")

        place_set = set(self.places)
        if place_set & trans_names:
            raise ValueError("place and transition names must be disjoint")
        self.preset: dict[str, tuple[str, ...]] = {t.name: () for t in self.transitions}
        self.postset: dict[str, tuple[str, ...]] = {t.name: () for t in self.transitions}
        for src, dst in self.arcs:
            if src in place_set and dst in trans_names:
                self.preset[dst] = self.preset[dst] + (src,)
            elif src in trans_names and dst in place_set:
                self.postset[src] = self.postset[src] + (dst,)
            else:
                raise ValueError(f"arc {src}->{dst} is not place/transition bipartite")
        for marking in (self.initial_marking, self.final_marking):
            for p in marking:
                if p not in place_set:
                    raise ValueError(f"marking references unknown place {p}")

    def is_enabled(self, marking: Counter, name: str) -> bool:
        need = Counter(self.preset[name])
        return all(marking[p] >= n for p, n in need.items())

    def fire(self, marking: Counter, name: str) -> Counter:
        if not self.is_enabled(marking, name):
            raise ValueError(f"transition {name} is not enabled")
        out = Counter(marking)
        out.subtract(Counter(self.preset[name]))
        out.update(Counter(self.postset[name]))
        return Counter({p: n for p, n in out.items() if n > 0})

    def __eq__(self, other):
        if not isinstance(other, PetriNet):
            return NotImplemented
        return (self.places == other.places and self.transitions == other.transitions
                and self.arcs == other.arcs
                and self.initial_marking == other.initial_marking
                and self.final_marking == other.final_marking)

    def __repr__(self):
        return (f"PetriNet({len(self.places)} places, {len(self.transitions)} "
                f"transitions, {len(self.arcs)} arcs)")


def to_dot(net: PetriNet) -> str:
    """Graph description: places as circles, transitions as boxes, silent
    transitions filled.  Node order is stable across runs."""

    def esc(s: str) -> str:
        return s.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph net {", "  rankdir=LR;"]
    for p in net.places:
        mark = ""
        if net.initial_marking.get(p):
            mark = " [source]"
        elif net.final_marking.get(p):
            mark = " [sink]"
        lines.append(f'  "{esc(p)}" [shape=circle label="{esc(p + mark)}"];')
    for t in net.transitions:
        if t.silent:
            lines.append(f'  "{esc(t.name)}" [shape=box style=filled '
                         f'fillcolor=black label=""];')
        else:
            lines.append(f'  "{esc(t.name)}" [shape=box label="{esc(t.label)}"];')
    for src, dst in net.arcs:
        lines.append(f'  "{esc(src)}" -> "{esc(dst)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def net_to_json(net: PetriNet) -> str:
    payload = {
        "places": list(net.places),
        "transitions": [[t.name, t.label] for t in net.transitions],
        "arcs": [list(a) for a in net.arcs],
        "initial_marking": dict(net.initial_marking),
        "final_marking": dict(net.final_marking),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def net_from_json(text: str) -> PetriNet:
    """The net ``net_to_json`` wrote; any other text is a ValueError."""
    payload = json.loads(text)
    try:
        return PetriNet(
            places=payload["places"],
            transitions=[Transition(name, label) for name, label in payload["transitions"]],
            arcs=[tuple(a) for a in payload["arcs"]],
            initial_marking=Counter(payload["initial_marking"]),
            final_marking=Counter(payload["final_marking"]),
        )
    except (LookupError, TypeError) as exc:
        raise ValueError(f"not a saved net: {exc!r}") from exc


def save_net(net: PetriNet, path) -> None:
    Path(path).write_text(net_to_json(net))


def save_dot(net: PetriNet, path) -> None:
    try:
        Path(path).write_text(to_dot(net))
    except OSError as exc:
        raise OSError(f"cannot write dot file {path}: {exc}") from exc


def load_net(path) -> PetriNet:
    return net_from_json(Path(path).read_text())
