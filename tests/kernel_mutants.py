"""Mutation gate for the compiled kernel: every mutant of ``_ckernel.c``
named here must be killed by the kernel tests.

Each mutant is a named ``(search, replace)`` pair on ``_ckernel.c``; its
search text must occur in the source exactly once (a tier-1 test checks
that, so an edit to the kernel has to update its mutants, not lose them).
For each mutant the script copies ``src/playmine`` to a temporary
directory, applies the pair, and checks in a child process that the copy
imports with the compiled backend: a mutant that does not build is an
error, not a kill.  Then it runs ``pytest -x`` on the parity, golden and
search test files against the copy in a child process.  A failing test, a
crash or the per-mutant timeout kills the mutant; a mutant that passes
every test survives, and any survivor or error makes the script exit
non-zero.  The unmutated source goes first and must pass, or a broken
harness would read as every mutant killed.  pytest does not collect this
file.  Run it from anywhere::

    python tests/kernel_mutants.py [name ...]

With names, only those mutants run.  A kernel change that moves a rule
adds a mutant for it here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "playmine"
SOURCE = PACKAGE / "kernel" / "_ckernel.c"
TEST_FILES = ("test_kernel_parity.py", "test_kernel_golden.py", "test_search.py")
TIMEOUT_S = 900

MUTANTS = {
    # the on-board tables
    "step_on_dropped": (
        "mv->steps[d] = movers & STEP_ON[d] & toward(empty, DELTA[d]);",
        "mv->steps[d] = movers & toward(empty, DELTA[d]);"),
    "jump_on_dropped": (
        "return JUMP_ON[d] & toward(opp, DELTA[d]) & toward(empty, 2 * DELTA[d]);",
        "return toward(opp, DELTA[d]) & toward(empty, 2 * DELTA[d]);"),
    "chain_jump_test_without_jump_on": (
        "|| !((jumps(d, opp, ch->empty) >> sq) & 1))",
        "|| !(((toward(opp, DELTA[d]) & toward(ch->empty, 2 * DELTA[d])) >> sq) & 1))"),
    # the linked memo walk
    "insert_keeps_stale_link": (
        "    e->link = 0;\n",
        ""),
    "link_when_full_memo_stored_nothing": (
        "if (prev >= 0 && k >= 0)\n"
        "                    memo->entries[prev].link = (uint32_t)k + 1;",
        "if (prev >= 0)\n"
        "                    memo->entries[prev].link =\n"
        "                        (uint32_t)(k >= 0 ? k : (Py_ssize_t)memo->nentries - 1) + 1;"),
    "followed_link_not_counted": (
        "k = memo->entries[prev].link - 1;\n                memo->hits++;",
        "k = memo->entries[prev].link - 1;\n                memo->steps--;"),
    # whole-rollout results in the first step's entry
    "result_ignores_depth": (
        "if (steps == 0 && e->walked > 0 && e->depth == sim_depth) {",
        "if (steps == 0 && e->walked > 0) {"),
    "result_depth_truncated": (
        "e->depth == sim_depth) {",
        "(uint32_t)e->depth == (uint32_t)sim_depth) {"),
    "result_depth_at_least": (
        "e->depth == sim_depth) {",
        "e->depth >= sim_depth) {"),
    "result_stored_after_unstored_step": (
        "if (steps == 0 || k < 0)\n",
        "if (steps == 0)\n"),
    "replay_counts_no_hits": (
        "                    memo->hits += e->walked - 1;\n",
        ""),
    "replay_sum_to_wrong_side": (
        "delta[0] = e->sum[0];\n                    delta[1] = e->sum[1];",
        "delta[0] = e->sum[1];\n                    delta[1] = e->sum[0];"),
    "insert_keeps_stale_result": (
        "    e->walked = 0;\n",
        ""),
    # searches kept by a handle: the replay's counts, each field of the key,
    # the sign of a zero exploration, the MEMO_MAX cap, the clear and the
    # minimax depth (a search that met a full memo leaves it more than half
    # full, so the next search's start empties it before any lookup: keeping
    # such a search is no mutant, for nothing replays it)
    "replay_adds_no_hits": (
        "            c.memo->hits += lookups;\n",
        ""),
    "replay_adds_no_steps": (
        "            c.memo->steps += lookups;\n",
        ""),
    "key_ignores_side": (
        "        k.side = side;\n",
        ""),
    "key_ignores_iterations": (
        "        k.iterations = iterations;\n",
        ""),
    "key_ignores_sim_depth": (
        "        k.sim_depth = sim_depth;\n",
        ""),
    "key_ignores_exploration": (
        "        k.explore = explore + 0.0;\n",
        ""),
    "key_keeps_sign_of_zero_exploration": (
        "        k.explore = explore + 0.0;\n",
        "        k.explore = explore;\n"),
    "key_ignores_discount": (
        "        k.discount = discount;\n",
        ""),
    "key_ignores_pruning": (
        "        k.pruning = t.pruning;\n",
        ""),
    "searches_kept_past_memo_max": (
        "    if (PyDict_GET_SIZE(m->searches) >= MEMO_MAX)\n        return 0;\n",
        ""),
    "searches_kept_across_clear": (
        "        if (m->searches != NULL)\n            PyDict_Clear(m->searches);\n",
        ""),
    "replay_at_minimax_depth_0": (
        "if (c.memo != &local && c.rules.mm_depth >= 1) {",
        "if (c.memo != &local) {"),
    # the power table of backup: its fill, its index and how deep it is
    # filled (a fill one entry short is no mutant: the last entry weighs only
    # the root's reward, which no output reads)
    "backup_power_off_by_one": (
        "t.pows[t.npows] = pow(discount, (double)t.npows);",
        "t.pows[t.npows] = pow(discount, (double)(t.npows + 1));"),
    "power_table_index_off_by_one": (
        "double factor = t->pows[dist];",
        "double factor = t->pows[dist + 1];"),
    "power_table_fill_ignores_selection_depth": (
        "            i = uct_child(&t, i, explore);\n            depth++;\n",
        "            i = uct_child(&t, i, explore);\n"),
    # the depth-1 quiet shortcut
    "shortcut_ignores_crowners": (
        "!(mv.jumpers | mv.crowners)",
        "!mv.jumpers"),
    "shortcut_ignores_jumpers": (
        "!(mv.jumpers | mv.crowners)",
        "!mv.crowners"),
    "crowners_on_wrong_row": (
        "(FAR_ROW(color) >> 8 | FAR_ROW(color) << 8)",
        "(FAR_ROW(color) >> 16 | FAR_ROW(color) << 16)"),
    "shortcut_at_the_root": (
        "if (depth == 1 && best == NULL && ",
        "if (depth == 1 && "),
    "shortcut_without_nan_guard": (
        "if (!isnan(score))\n            return score;",
        "return score;"),
    # the masks carried down minimax
    "child_keeps_captured_pieces": (
        "out->side[1 - color] = bm->side[1 - color] & ~m->capmask;",
        "out->side[1 - color] = bm->side[1 - color];"),
    "child_keeps_parent_kings": (
        "out->kings = (bm->kings & ~(frm | m->capmask)) | (king << m->to);",
        "out->kings = bm->kings;"),
    "child_lands_before_leaving": (
        "out->side[color] = (bm->side[color] & ~frm) | to;",
        "out->side[color] = (bm->side[color] | to) & ~frm;"),
    # chains test jumps on masks
    "chain_retakes_captured_pieces": (
        "uint64_t opp = ch->opp & ~ch->capmask;",
        "uint64_t opp = ch->opp;"),
    "chain_start_square_not_empty": (
        "ch.empty = empty | 1ULL << idx;",
        "ch.empty = empty;"),
    "chain_kings_not_counted": (
        "int nk = kcap + ((mv & KING_FLAG) != 0), rc;",
        "int nk = kcap, rc;"),
    # one writer builds every move
    "step_never_crowns": (
        "(mv->crowners >> idx) & 1) < 0)",
        "0) < 0)"),
    "writer_leaves_captured_pieces": (
        "    for (uint64_t w = capmask; w; w &= w - 1)\n"
        "        m->state[__builtin_ctzll(w)] = 0;\n",
        ""),
    "writer_lands_before_leaving": (
        "    m->state[from] = 0;\n"
        "    m->state[to] = crowned ? (piece | KING_FLAG) : piece;\n",
        "    m->state[to] = crowned ? (piece | KING_FLAG) : piece;\n"
        "    m->state[from] = 0;\n"),
    # where men go and crown, read by find_movers and the chain search
    "far_row_one_row_short": (
        "#define FAR_ROW(color) ((color) == WHITE ? 0xFFULL << 56 : 0xFFULL)",
        "#define FAR_ROW(color) ((color) == WHITE ? 0xFFULL << 48 : 0xFFULL << 8)"),
    "crowners_keep_kings": (
        "mv->crowners = mv->steppers & ~kings & ",
        "mv->crowners = mv->steppers & "),
    "chain_men_jump_backwards": (
        "if (!(ch->king || MAN_DIR(ch->color, d)) || ",
        "if ("),
    "chain_never_crowns": (
        "if (!ch->king && ((FAR_ROW(ch->color) >> land) & 1)) {",
        "if (0) {"),
    # one rules record for a call and its memo: each field is compared
    "memo_ignores_forced_capture": (
        "(m->rules.forced != r->forced || m->rules.cap_pts",
        "(m->rules.cap_pts"),
    "memo_ignores_capture_points": (
        " || m->rules.cap_pts != r->cap_pts\n",
        "\n"),
    "memo_ignores_crown_points": (
        "|| m->rules.crown_pts != r->crown_pts || ",
        "|| "),
    "memo_ignores_king_weight": (
        " || m->rules.kw != r->kw\n",
        "\n"),
    "memo_ignores_minimax_depth": (
        "\n             || m->rules.mm_depth != r->mm_depth) {",
        ") {"),
}


def mismatched(source):
    """The names of the mutants whose search text does not occur in
    ``source`` exactly once."""
    return [name for name, (search, _) in MUTANTS.items() if source.count(search) != 1]


def run_tests(source):
    """Builds ``source`` in a copy of the package and runs the tests against
    it: ``"passed"``, ``"failed ..."``, ``"crashed ..."``, ``"timed out"``,
    or ``"error: ..."`` when the copy does not build or pytest could not
    run."""
    with tempfile.TemporaryDirectory(prefix="kernel-mutant-") as tmp:
        root = Path(tmp)
        shutil.copytree(PACKAGE, root / "playmine",
                        ignore=shutil.ignore_patterns("__pycache__"))
        (root / "playmine" / "kernel" / "_ckernel.c").write_text(source)
        env = {k: v for k, v in os.environ.items() if k != "PLAYMINE_PURE"}
        env["PYTHONPATH"] = os.pathsep.join([str(root), str(TESTS)])
        check = subprocess.run(
            [sys.executable, "-c", "import playmine.kernel as k; print(k.BACKEND, k.__file__)"],
            env=env, cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S)
        backend, _, path = check.stdout.strip().partition(" ")
        if check.returncode != 0 or backend != "compiled":
            lines = check.stderr.strip().splitlines()
            return f"error: does not build ({lines[-1] if lines else backend})"
        if not Path(path).resolve().is_relative_to(root.resolve()):
            return f"error: the tests would import {path}, not the copy"
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *(str(TESTS / f) for f in TEST_FILES)]
        try:
            proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timed out"
    if proc.returncode == 0:
        return "passed"
    if proc.returncode < 0:
        return f"crashed (signal {-proc.returncode})"
    # a test that fails or errors in its setup, as pytest -q lists it
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    if proc.returncode == 1 and failed:
        path, _, test = failed[0].split(" ")[1].partition("::")
        return f"failed {Path(path).name}::{test}"
    return f"error: pytest exited {proc.returncode}: {proc.stdout.strip()[-300:]}"


def main(names):
    source = SOURCE.read_text()
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}")
        return 2
    bad = mismatched(source)
    if bad:
        print(f"search text not found exactly once: {', '.join(bad)}")
        return 1
    # a harness that fails on the unmutated kernel would read every mutant
    # as killed
    start = time.perf_counter()
    baseline = run_tests(source)
    print(f"unmutated: {baseline} ({time.perf_counter() - start:.1f} s)", flush=True)
    if baseline != "passed":
        return 1
    survivors = []
    for name in names or MUTANTS:
        search, replace = MUTANTS[name]
        start = time.perf_counter()
        outcome = run_tests(source.replace(search, replace))
        if outcome == "passed" or outcome.startswith("error"):
            survivors.append(name)
        verdict = "SURVIVED" if outcome == "passed" else outcome
        print(f"{name}: {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
    total = len(names or MUTANTS)
    print(f"{total - len(survivors)} of {total} mutants killed"
          + (f"; not killed: {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
