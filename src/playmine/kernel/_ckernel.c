/* Compiled twin of the four hot _pykernel ops: gen_moves, alpha-beta
 * minimax, rollout and search (the whole MCTS turn), and of new_memo; and
 * of the alignment search: new_marking_graph and align.  The other ops,
 * winner among them, are _pykernel's on every backend.
 *
 * _pykernel.py's module docstring states the contract the twins keep: board
 * encoding, move order, the first-in-order tie rule, the float operations
 * and their order, the one rollout loop (playout here), the final pick
 * (uct_child at exploration 0), the one rules record (Rules here) and the
 * rollout memo, with the searches a memo handle keeps and replays and the
 * caller's `converted` dict that it empties with them (dicts in each twin,
 * MemoObject here, so contract, not inside differences).
 * The parity tests hold the two to identical outputs.  As in
 * _pykernel, each rule has one home: MAN_DIR and FAR_ROW say where a man
 * moves and crowns, one jump test (jumps) finds every jump, one writer
 * (emit) builds every chain and step, and one Rules record is what a call
 * plays by and what its memo is bound to.  search calls no Python code.
 *
 * This is the one list of how the twins differ inside.  Each difference
 * gives the same outputs and pays on a workload: perfbench's search-deep,
 * trial-smoke or log-mine-align, or the paper game (README's 3000/30/3 game, seed 1, episode
 * 0).  What turning each off costs is measured in CHANGES.md.
 *
 * 1. Masks.  find_movers finds the pieces that can step, jump or crown from
 *    64-bit masks of the board (white pieces, red pieces, kings; board_masks
 *    reads them 8 squares to a word), and a capture chain tests each jump
 *    on the same masks, where _pykernel scans the squares and a scratch
 *    board.  Pays on search-deep, trial-smoke and the paper game.
 * 2. Carried masks and material.  minimax reads the masks and the material
 *    counts off the board at its root only and derives each child's from
 *    its parent's and the move (child_masks, child_material: its from and
 *    to squares, captures and crowning), so a leaf is scored from counts
 *    where _pykernel counts each leaf's board: the same float expression on
 *    the same counts, so bit-identical.  Pays on search-deep and the paper
 *    game.
 * 3. The depth-1 quiet shortcut.  A depth-1 node below the root whose side
 *    can neither capture nor crown is scored from its own material without
 *    generating its moves; minimax's comment says why that is the score the
 *    full loop gives.  Pays on search-deep and the paper game.
 * 4. The memo is an open-addressed table where _pykernel keeps a dict, and
 *    each entry holds the whole-rollout result that _pykernel keeps in a
 *    second dict.  C has no dict, so this is the memo itself, whose
 *    behaviour the contract fixes (what it stores, when it inserts and
 *    clears, what it counts).  Without it every rollout step runs minimax;
 *    pays on every workload that plays rollouts, the paper game most.
 * 5. Linked memo entries.  Each entry links to the entry of the step after
 *    it, so a rollout walking entries it has linked neither hashes nor
 *    copies a board, yet counts each followed link as the step and the hit
 *    its lookup would be.  Pays on trial-smoke and the paper game, whose
 *    rollouts repeat; not on search-deep, whose steps mostly miss.
 * 6. The power table.  backup reads pow(discount, dist) from a table of the
 *    search's iteration count + 1 entries (the deepest a node can lie),
 *    each filled by the same pow call the first time the tree reaches its
 *    depth, where _pykernel computes discount ** dist at every backup step.
 *    Pays on trial-smoke and the paper game, whose rollouts are mostly
 *    memo walks, so the backup is a large share of an iteration; not on
 *    search-deep, whose 2-iteration searches are minimax-bound.
 * 7. The marking table.  A marking graph keeps each marking as a row of
 *    16-bit token counts in one block, finds it through an open-addressed
 *    table of its hash, and keeps every successor list in one array; align
 *    keeps each reached state's cost, parent and move in one record found
 *    through a second such table, where _pykernel keeps dicts keyed by
 *    tuples and ints.  C has no dict, so this is the graph and the search
 *    themselves, whose behaviour the contract fixes (numbering, expansion
 *    order, push order, counts).  Pays on log-mine-align and trial-smoke,
 *    which align: a log-mine-align batch's fitness_metrics took about 16 ms
 *    on it, against about 67 ms with the pure search.
 *
 * playmine/kernel/__init__.py compiles this file on first import; the
 * kernel needs the GCC/Clang builtins __builtin_ctzll and
 * __builtin_popcountll, and a compiler without them fails the build, so the
 * pure kernel is used and the reason logged.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define WHITE 0
#define KING_FLAG 0x20
#define ID_MASK 0x1F

/* Longest capture chain on any 64-byte state.  A jump moves the piece by
 * (+-2, +-2), so the parities of the mover's x and y never change, and the
 * piece it captures sat halfway, on an interior square (x and y in 1..6)
 * whose x and y have the other parities.  There are 3 x 3 such squares and
 * each is emptied by its capture, so no chain captures more than 9 pieces.
 * The parity tests play a 9-capture chain. */
#define MAXCAPS 9

/* A step in direction d moves a piece from square idx to idx + DELTA[d],
 * by (dx, dy) = (1, 1), (1, -1), (-1, 1) and (-1, -1) in turn; MAN_DIR
 * says which of them a man moves in. */
static const int DELTA[4] = {9, 7, -7, -9};

/* Bit idx of STEP_ON[d] (JUMP_ON[d]) is set when a step (a jump) in
 * direction d from square idx stays on the board; init_tables fills them
 * when the module loads.  They keep a shifted mask from wrapping onto the
 * next row: idx + 7 from (0, 0) is (1, 7), not (1, -1). */
static uint64_t STEP_ON[4], JUMP_ON[4];

static void
init_tables(void)
{
    for (int d = 0; d < 4; d++) {
        for (int idx = 0; idx < 64; idx++) {
            for (int k = 1; k <= 2; k++) {
                int to = idx + k * DELTA[d];
                /* off the board, or onto another column than y +- k */
                if (to < 0 || to > 63 || abs((to & 7) - (idx & 7)) != k)
                    continue;
                if (k == 1)
                    STEP_ON[d] |= 1ULL << idx;
                else
                    JUMP_ON[d] |= 1ULL << idx;
            }
        }
    }
}

typedef struct {
    unsigned char frm, to, ncap, crowned;
    unsigned char kcap; /* how many of the ncap captured pieces were kings */
    unsigned char caps[MAXCAPS];
    long reward;
    uint64_t capmask; /* the squares of the captured pieces */
    unsigned char state[64];
} Move;

/* The rules a call plays by and a memo's entries were made under: forced
 * capture, the points of a capture and of a crowning, the king weight and
 * the minimax depth of the rollout steps. */
typedef struct {
    int forced;
    long cap_pts, crown_pts, mm_depth;
    double kw;
} Rules;

/* One rollout step's outcome, as the memo keeps it: the side `side` to move
 * on `state` has no legal move (found 0), or its minimax move earns
 * `reward` and leads to `next`.  `link` is 0 until a rollout takes the step
 * from (next, 1 - side) after this one; then it is k + 1 for the entry
 * entries[k] of that step.  `walked` is 0 until a rollout whose first step
 * this is has been walked; then that rollout went `depth` steps deep
 * (its sim_depth), made `walked` memo lookups and earned `sum` [white,
 * red].  Entries are never removed but all at once, and memo_insert zeroes
 * the link and `walked`, so a link or a result once set stays right. */
typedef struct {
    unsigned char state[64];
    unsigned char next[64];
    long reward;
    long sum[2], depth, walked;
    uint32_t hash, link;
    unsigned char side, found;
} Entry;

/* A rollout memo holds at most this many entries: 6.0 MB of entries (184
 * bytes each on x86-64) and 256 KB of slots.  Past it the memo answers
 * lookups and inserts no more; _pykernel.MEMO_MAX is the same bound on its
 * dict. */
#define MEMO_MAX 32768

/* A rollout memo: an open-addressed table of nslots (a power of two) uint32
 * slots, 0 for empty and k for entries[k - 1], over a dense array of
 * entries; both are allocated on the first insert and freed by memo_free.
 * `bound` says whether a search has fixed the rules its entries hold steps
 * of.  steps counts the rollout steps looked up, hits those found, clears
 * the times it was emptied.  `searches` is NULL, or a handle's dict of the
 * searches it keeps, and `converted` NULL, or a handle's dict of their
 * converted moves (see MemoObject). */
typedef struct {
    uint32_t *slots;
    Entry *entries;
    size_t nslots, nentries, entry_cap;
    int bound;
    Rules rules;
    long long steps, hits, clears;
    PyObject *searches, *converted;
} Memo;

/* One kernel call: its rules, the stack that every move it generates is
 * pushed on, so there is no fixed move limit, and its rollout memo.  A
 * minimax level pushes its moves on top and pops them before returning;
 * moves are addressed by index because growing the stack may move it, and
 * no state argument ever points into it. */
typedef struct {
    Rules rules;
    Move *moves;
    Py_ssize_t n, cap;
    Memo *memo;
    int failed; /* a Python exception is set */
} Call;

static void
call_free(Call *c)
{
    PyMem_Free(c->moves);
}

static Move *
push(Call *c)
{
    if (c->n == c->cap) {
        Py_ssize_t cap = c->cap ? 2 * c->cap : 64;
        Move *m = PyMem_Realloc(c->moves, (size_t)cap * sizeof(Move));
        if (m == NULL) {
            PyErr_NoMemory();
            c->failed = 1;
            return NULL;
        }
        c->moves = m;
        c->cap = cap;
    }
    return &c->moves[c->n++];
}

/* The top bit of each byte of w, as an 8-bit mask: byte k's is bit k. */
static inline uint64_t
byte_tops(uint64_t w)
{
    return (((w >> 7) & 0x0101010101010101ULL) * 0x0102040810204080ULL) >> 56;
}

/* A board as masks whose bit idx is square idx: the squares of the white
 * pieces (side[WHITE]), of the red pieces (side[1 - WHITE]) and of all
 * kings. */
typedef struct {
    uint64_t side[2], kings;
} Masks;

/* The masks of a state, read 8 squares to a 64-bit word, byte k of word i
 * being square 8 i + k.  Only a search root reads them so: minimax derives
 * each child's masks from its parent's by child_masks. */
static void
board_masks(const unsigned char *state, Masks *bm)
{
    const uint64_t low7 = 0x7F7F7F7F7F7F7F7FULL;
    bm->side[0] = bm->side[1] = bm->kings = 0;
    for (int i = 0; i < 8; i++) {
        uint64_t w;
        memcpy(&w, state + 8 * i, 8);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
        w = __builtin_bswap64(w);
#endif
        /* top bit of each byte: the square is not empty, the piece is red,
         * the piece is a king */
        uint64_t busy = ((w & low7) + low7) | w, red = w << 1, king = w << 2;
        bm->side[WHITE] |= byte_tops(busy & ~red) << (8 * i);
        bm->side[1 - WHITE] |= byte_tops(busy & red) << (8 * i);
        bm->kings |= byte_tops(busy & king) << (8 * i);
    }
}

/* The squares s whose square s + delta is in mask m. */
static inline uint64_t
toward(uint64_t m, int delta)
{
    return delta > 0 ? m >> delta : m << -delta;
}

/* The squares from which a jump in direction d takes a piece on a square
 * of opp and lands on a square of empty, JUMP_ON keeping the landing square
 * on the board: the one home of the jump rule, which find_movers applies to
 * the board and extend_chains to the board as a chain has left it. */
static inline uint64_t
jumps(int d, uint64_t opp, uint64_t empty)
{
    return JUMP_ON[d] & toward(opp, DELTA[d]) & toward(empty, 2 * DELTA[d]);
}

/* The pieces of one side that can move, as masks whose bit idx is square
 * idx: steps[d] holds those that can step in direction d, steppers all of
 * them, jumpers those that can start a jump (an opponent next to them, an
 * empty square beyond), and crowners the men among the steppers whose step
 * reaches their far row.  STEP_ON and JUMP_ON keep every mask on the
 * board. */
typedef struct {
    uint64_t steps[4], steppers, jumpers, crowners;
} Movers;

/* The one home of where men go: a man of `color` moves in direction d when
 * MAN_DIR holds (white men in 0-1, toward x = 7; red men in 2-3, toward
 * x = 0; WHITE is 0), a king in all four, and a man crowns on the squares
 * of FAR_ROW, x = 7 (squares 56-63) for white and x = 0 (0-7) for red. */
#define MAN_DIR(color, d) (((d) >> 1) == (color))
#define FAR_ROW(color) ((color) == WHITE ? 0xFFULL << 56 : 0xFFULL)

/* The one home of the rules for which pieces of `color` can move, on the
 * board whose masks are bm. */
static void
find_movers(const Masks *bm, int color, Movers *mv)
{
    uint64_t own = bm->side[color], opp = bm->side[1 - color], kings = bm->kings & own;
    uint64_t empty = ~(own | opp);
    mv->steppers = mv->jumpers = 0;
    for (int d = 0; d < 4; d++) {
        uint64_t movers = MAN_DIR(color, d) ? own : kings;
        mv->steps[d] = movers & STEP_ON[d] & toward(empty, DELTA[d]);
        mv->steppers |= mv->steps[d];
        mv->jumpers |= movers & jumps(d, opp, empty);
    }
    /* a man's step goes one row forward, so from the row next to FAR_ROW
     * (only one of the two shifts stays on the board) onto FAR_ROW */
    mv->crowners = mv->steppers & ~kings & (FAR_ROW(color) >> 8 | FAR_ROW(color) << 8);
}

/* Pushes the move of the piece on square `from` of `state` to square `to`,
 * taking the ncap pieces with ids caps on the squares capmask, kcap of them
 * kings, and crowning when `crowned`: the one writer of every chain and
 * step.  The mover leaves `from` before it lands, since a king's capture
 * loop may end where it started.  0, or -1 on error. */
static inline int
emit(Call *c, const unsigned char *state, int from, int to, const unsigned char *caps,
     uint64_t capmask, int ncap, int kcap, int crowned)
{
    Move *m = push(c);
    if (m == NULL)
        return -1;
    unsigned char piece = state[from];
    m->frm = (unsigned char)from;
    m->to = (unsigned char)to;
    m->ncap = (unsigned char)ncap;
    m->kcap = (unsigned char)kcap;
    m->crowned = (unsigned char)crowned;
    m->reward = c->rules.cap_pts * ncap + (crowned ? c->rules.crown_pts : 0);
    m->capmask = capmask;
    if (ncap > 0)
        memcpy(m->caps, caps, (size_t)ncap);
    memcpy(m->state, state, 64);
    for (uint64_t w = capmask; w; w &= w - 1)
        m->state[__builtin_ctzll(w)] = 0;
    m->state[from] = 0;
    m->state[to] = crowned ? (piece | KING_FLAG) : piece;
    return 0;
}

/* Jump search for one piece of `state`, of `color`: the opponent's pieces
 * and the empty squares, the mover's own among them, as masks; and the ids
 * and squares captured so far. */
typedef struct {
    const unsigned char *state;
    uint64_t opp, empty, capmask;
    unsigned char caps[MAXCAPS];
    int from, king, color;
} Chain;

/* DFS over jump continuations from square sq, ncap pieces captured so far,
 * kcap of them kings; emits every chain that cannot be extended.  A man
 * jumps only in its MAN_DIR directions, and landing on FAR_ROW crowns it
 * and ends its chain.  A captured piece cannot be taken again.  No chain
 * lands on a captured piece's square, which has the other parities of x and
 * y than the mover's (see MAXCAPS), so a chain lands only on squares that
 * were empty once the mover left its own.  Returns 1 if a jump was found, 0
 * if none, -1 on error. */
static int
extend_chains(Call *c, Chain *ch, int sq, int ncap, int kcap)
{
    int jumped = 0;
    uint64_t opp = ch->opp & ~ch->capmask;
    for (int d = 0; d < 4; d++) {
        if (!(ch->king || MAN_DIR(ch->color, d)) || !((jumps(d, opp, ch->empty) >> sq) & 1))
            continue;
        int mid = sq + DELTA[d], land = mid + DELTA[d];
        unsigned char mv = ch->state[mid];
        jumped = 1;
        ch->capmask ^= 1ULL << mid;
        ch->caps[ncap] = mv & ID_MASK;
        int nk = kcap + ((mv & KING_FLAG) != 0), rc;
        if (!ch->king && ((FAR_ROW(ch->color) >> land) & 1)) {
            rc = emit(c, ch->state, ch->from, land, ch->caps, ch->capmask, ncap + 1, nk, 1);
        }
        else {
            rc = extend_chains(c, ch, land, ncap + 1, nk);
            if (rc == 0)
                rc = emit(c, ch->state, ch->from, land, ch->caps, ch->capmask, ncap + 1, nk, 0);
        }
        if (rc < 0)
            return -1;
        ch->capmask ^= 1ULL << mid;
    }
    return jumped;
}

/* Pushes every legal move of `color` on the board `state` of masks bm, whose
 * movable pieces are mv: per piece in ascending board index its capture
 * chains, then its quiet steps, each in direction order; with forced capture
 * and any capture available only the captures.  That is
 * _pykernel.gen_moves's order, but the squares are not scanned one by one:
 * only the pieces in mv's masks are visited, in ascending index by
 * count-trailing-zeros, and only a jump starter enters extend_chains.  A jump
 * starter has a chain, so with forced capture and any jump starter no quiet
 * step is built.  A step crowns when its piece is one of mv's crowners.
 * Returns the number of moves pushed, or -1 on error. */
static Py_ssize_t
gen_movers(Call *c, const unsigned char *state, const Masks *bm, int color, const Movers *mv)
{
    Py_ssize_t base = c->n;
    uint64_t jumpers = mv->jumpers, empty = ~(bm->side[0] | bm->side[1]);
    int quiet = !(c->rules.forced && jumpers);
    Chain ch;
    ch.state = state;
    ch.opp = bm->side[1 - color];
    ch.capmask = 0;
    ch.color = color;
    for (uint64_t walk = jumpers | (quiet ? mv->steppers : 0); walk; walk &= walk - 1) {
        int idx = __builtin_ctzll(walk);
        if ((jumpers >> idx) & 1) {
            ch.from = idx;
            ch.king = (bm->kings >> idx) & 1;
            ch.empty = empty | 1ULL << idx;
            if (extend_chains(c, &ch, idx, 0, 0) < 0)
                return -1;
        }
        for (int d = 0; quiet && d < 4; d++)
            if (((mv->steps[d] >> idx) & 1)
                    && emit(c, state, idx, idx + DELTA[d], NULL, 0, 0, 0,
                            (mv->crowners >> idx) & 1) < 0)
                return -1;
    }
    return c->n - base;
}

/* Every legal move of `color` on a state no search has masks of. */
static Py_ssize_t
gen(Call *c, const unsigned char *state, int color)
{
    Masks bm;
    Movers mv;
    board_masks(state, &bm);
    find_movers(&bm, color, &mv);
    return gen_movers(c, state, &bm, color, &mv);
}

/* The masks after `color` plays m on the board of masks bm, as board_masks
 * of m->state reads them: the mover leaves its square, then lands (a king's
 * capture loop may land on the square it left), a king if it was one or
 * crowns; the captured pieces and kings leave. */
static void
child_masks(const Masks *bm, const Move *m, int color, Masks *out)
{
    uint64_t frm = 1ULL << m->frm, to = 1ULL << m->to;
    uint64_t king = ((bm->kings >> m->frm) & 1) | m->crowned;
    out->side[color] = (bm->side[color] & ~frm) | to;
    out->side[1 - color] = bm->side[1 - color] & ~m->capmask;
    out->kings = (bm->kings & ~(frm | m->capmask)) | (king << m->to);
}

/* A board's material from its masks: its white men, white kings, red men
 * and red kings. */
static void
board_material(const Masks *bm, long mat[4])
{
    for (int side = 0; side < 2; side++) {
        mat[2 * side] = __builtin_popcountll(bm->side[side] & ~bm->kings);
        mat[2 * side + 1] = __builtin_popcountll(bm->side[side] & bm->kings);
    }
}

/* The material after `color` plays m: the captured men and kings leave,
 * and a crowning turns one of the mover's men into a king.  It equals
 * board_material of m->state. */
static void
child_material(const long mat[4], const Move *m, long color, long out[4])
{
    int own = color == WHITE ? 0 : 2, opp = 2 - own;
    memcpy(out, mat, 4 * sizeof(long));
    out[opp] -= m->ncap - m->kcap;
    out[opp + 1] -= m->kcap;
    out[own] -= m->crowned;
    out[own + 1] += m->crowned;
}

/* Material from `color`'s side: men count 1, kings 1 + king_weight, in
 * _pykernel.evaluate's float operations. */
static double
evaluate(const long mat[4], long color, double king_weight)
{
    double white = (double)(mat[0] + mat[1] - mat[2] - mat[3])
                   + king_weight * (double)(mat[1] - mat[3]);
    return color == WHITE ? white : -white;
}

/* Depth-limited fail-soft alpha-beta (Knuth & Moore, 1975), scored from
 * the agent's side; the root is searched on the open window (-inf, +inf).
 * A move replaces the best one only on a strict improvement, so a root
 * child that only ties the best fails low: the chosen move is the first
 * co-optimal one in gen order and the root score is exact.  A node whose
 * side has no legal move is terminal and scored by evaluate, like a depth-0
 * leaf; that is _pykernel.winner's test.  When `best` is given the
 * chosen move is copied there and *found says whether there was one.
 *
 * `bm` holds the masks of `state` and `mat` its material.  A root derives
 * them from its board (board_masks, board_material); minimax derives each
 * child's from them and the move (child_masks, child_material), so no node
 * below a root reads its board into masks or counts it.  A leaf is scored by
 * evaluate from counts: a depth-1 node scores its children that way, with no
 * copy of their states or masks and no call below it.
 *
 * A depth-1 node below the root whose side has no jump starter and no man
 * that can step onto its far row, a test on its masks, returns
 * evaluate(mat) without generating a move.  That is its exact score: every
 * move is then a quiet step that crowns nothing, so every child has the
 * material mat; the first child sets best_score to evaluate(mat), no later
 * one improves on it strictly and a cutoff returns it unchanged, and a node
 * with no move returns it too.  Only a NaN score (an infinite or NaN king
 * weight) is never set by a child, so that node takes the full loop. */
static double
minimax(Call *c, const unsigned char *state, const Masks *bm, const long mat[4], long to_move,
        long agent, long depth, double alpha, double beta, Move *best, int *found)
{
    if (found != NULL)
        *found = 0;
    if (depth == 0)
        return evaluate(mat, agent, c->rules.kw);
    Movers mv;
    find_movers(bm, (int)to_move, &mv);
    if (depth == 1 && best == NULL && !(mv.jumpers | mv.crowners)) {
        double score = evaluate(mat, agent, c->rules.kw);
        if (!isnan(score))
            return score;
    }
    Py_ssize_t base = c->n, n = gen_movers(c, state, bm, (int)to_move, &mv);
    if (n < 0)
        return 0.0;
    if (n == 0)
        return evaluate(mat, agent, c->rules.kw);
    int maximizing = to_move == agent;
    double best_score = maximizing ? -INFINITY : INFINITY;
    Py_ssize_t best_i = -1;
    unsigned char child[64];
    Masks child_bm;
    long child_mat[4];
    for (Py_ssize_t i = 0; i < n; i++) {
        child_material(mat, &c->moves[base + i], to_move, child_mat);
        double score;
        if (depth == 1) {
            score = evaluate(child_mat, agent, c->rules.kw);
        }
        else {
            memcpy(child, c->moves[base + i].state, 64);
            child_masks(bm, &c->moves[base + i], (int)to_move, &child_bm);
            score = minimax(c, child, &child_bm, child_mat, 1 - to_move, agent, depth - 1,
                            alpha, beta, NULL, NULL);
            if (c->failed)
                break;
        }
        if (maximizing ? score > best_score : score < best_score) {
            best_score = score;
            best_i = i;
            if (maximizing && score > alpha)
                alpha = score;
            else if (!maximizing && score < beta)
                beta = score;
            if (alpha >= beta)
                break;
        }
    }
    if (best != NULL && best_i >= 0) {
        *best = c->moves[base + best_i];
        *found = 1;
    }
    c->n = base;
    return best_score;
}

/* ---- rollout memo ---- */

/* The key's hash: the state's 8 words and the side, mixed by multiply and
 * xor.  A Zobrist hash would need a 64 x 128 table of random words and
 * updates through gen to save nothing on an 8-word key; lookups compare the
 * whole key anyway. */
static uint32_t
memo_hash(const unsigned char *state, long side)
{
    uint64_t h = 0x9E3779B97F4A7C15u * (uint64_t)(side + 1), w;
    for (int i = 0; i < 8; i++) {
        memcpy(&w, state + 8 * i, 8);
        h = (h ^ w) * 0xBF58476D1CE4E5B9u;
        h ^= h >> 31;
    }
    return (uint32_t)(h ^ (h >> 32));
}

/* The memo's entry for (state, side), or NULL; *slot is then the empty slot
 * where it belongs.  Linear probing, so with the table at most half full a
 * probe ends at an empty slot. */
static const Entry *
memo_find(const Memo *m, const unsigned char *state, long side, uint32_t hash,
          size_t *slot)
{
    if (m->nslots == 0)
        return NULL;
    size_t mask = m->nslots - 1, i = hash & mask;
    for (uint32_t k; (k = m->slots[i]) != 0; i = (i + 1) & mask) {
        const Entry *e = &m->entries[k - 1];
        if (e->hash == hash && e->side == side && memcmp(e->state, state, 64) == 0)
            return e;
    }
    *slot = i;
    return NULL;
}

/* Doubles the slot table (from 256) and re-indexes every entry; 0, or -1 on
 * error.  Only the 4-byte slots are zeroed, never the entries. */
static int
memo_grow_slots(Memo *m)
{
    size_t nslots = m->nslots ? 2 * m->nslots : 256, mask = nslots - 1;
    uint32_t *slots = PyMem_Calloc(nslots, sizeof(uint32_t));
    if (slots == NULL)
        return -1;
    for (size_t k = 0; k < m->nentries; k++) {
        size_t i = m->entries[k].hash & mask;
        while (slots[i] != 0)
            i = (i + 1) & mask;
        slots[i] = (uint32_t)(k + 1);
    }
    PyMem_Free(m->slots);
    m->slots = slots;
    m->nslots = nslots;
    return 0;
}

/* Records that the step (state, side) missed and found `best` (when found);
 * `slot` is memo_find's.  Returns the new entry's index, or -1 when nothing
 * was stored: the memo is full, or on error, which sets c->failed. */
static Py_ssize_t
memo_insert(Call *c, const unsigned char *state, long side, uint32_t hash, size_t slot,
            int found, const Move *best)
{
    Memo *m = c->memo;
    if (m->nentries == MEMO_MAX)
        return -1;
    if (m->nentries == m->entry_cap) {
        size_t cap = m->entry_cap ? 2 * m->entry_cap : 64;
        Entry *entries = PyMem_Realloc(m->entries, cap * sizeof(Entry));
        if (entries == NULL)
            goto nomem;
        m->entries = entries;
        m->entry_cap = cap;
    }
    /* at most half the slots in use */
    if (2 * (m->nentries + 1) > m->nslots) {
        if (memo_grow_slots(m) < 0)
            goto nomem;
        memo_find(m, state, side, hash, &slot);
    }
    Entry *e = &m->entries[m->nentries++];
    memcpy(e->state, state, 64);
    e->hash = hash;
    e->link = 0;
    e->walked = 0;
    e->side = (unsigned char)side;
    e->found = (unsigned char)found;
    if (found) {
        e->reward = best->reward;
        memcpy(e->next, best->state, 64);
    }
    m->slots[slot] = (uint32_t)m->nentries;
    return (Py_ssize_t)m->nentries - 1;
nomem:
    PyErr_NoMemory();
    c->failed = 1;
    return -1;
}

static void
memo_free(Memo *m)
{
    PyMem_Free(m->slots);
    PyMem_Free(m->entries);
    Py_XDECREF(m->searches);
    Py_XDECREF(m->converted);
}

#define MEMO_RULES_MSG \
    "memo holds rollout steps of other rules: forced capture, points, king weight " \
    "or minimax depth differ"

/* Readies memo m for a search under rules r: the first search binds m to
 * them and a later one with any other value (a NaN king weight matches
 * none) sets ValueError and returns -1.  Then a memo more than half full is emptied,
 * with the searches it keeps and their converted moves, keeping its
 * allocations, so every search has room for at least half of MEMO_MAX new
 * entries. */
static int
memo_start(Memo *m, const Rules *r)
{
    if (!m->bound) {
        m->bound = 1;
        m->rules = *r;
    }
    else if (m->rules.forced != r->forced || m->rules.cap_pts != r->cap_pts
             || m->rules.crown_pts != r->crown_pts || m->rules.kw != r->kw
             || m->rules.mm_depth != r->mm_depth) {
        PyErr_SetString(PyExc_ValueError, MEMO_RULES_MSG);
        return -1;
    }
    if (m->nentries > MEMO_MAX / 2) {
        memset(m->slots, 0, m->nslots * sizeof(uint32_t));
        m->nentries = 0;
        if (m->searches != NULL)
            PyDict_Clear(m->searches);
        if (m->converted != NULL)
            PyDict_Clear(m->converted);
        m->clears++;
    }
    return 0;
}

/* ---- UCT search ---- */

/* A search tree node.  The root's `move` holds only its state. */
typedef struct {
    Move move;           /* the move that entered the node; move.state is its position */
    double reward[2];    /* [white, red], discounted as backed up */
    long visits;
    Py_ssize_t parent;   /* -1 at the root */
    Py_ssize_t first;    /* its actions are nodes first .. first + nact - 1 */
    Py_ssize_t nact;     /* -1 until its actions are generated */
    Py_ssize_t nkids;    /* how many of its actions are in the tree */
    int turn;
} Node;

/* One search call's tree: an arena that grows by whole blocks of child
 * slots.  Nodes are addressed by index, since growing may move it.  Each
 * iteration adds at most one node, so no node lies deeper than the
 * iteration count; pows, of that count + 1 entries, holds pow(discount, k)
 * for every k < npows, filled as the tree deepens. */
typedef struct {
    Node *nodes;
    Py_ssize_t n, cap;
    int pruning;
    double *pows;
    Py_ssize_t npows;
} Tree;

/* Generates node i's actions once, reserving their slots as one block;
 * returns their number, or -1 on error. */
static Py_ssize_t
tree_actions(Tree *t, Call *c, Py_ssize_t i)
{
    if (t->nodes[i].nact >= 0)
        return t->nodes[i].nact;
    Py_ssize_t base = c->n, n = gen(c, t->nodes[i].move.state, t->nodes[i].turn);
    if (n < 0)
        return -1;
    if (t->pruning && n > 0) {
        /* keep only the moves of the top reward, in order */
        long top = c->moves[base].reward;
        for (Py_ssize_t k = 1; k < n; k++)
            if (c->moves[base + k].reward > top)
                top = c->moves[base + k].reward;
        Py_ssize_t j = base;
        for (Py_ssize_t k = base; k < base + n; k++)
            if (c->moves[k].reward == top)
                c->moves[j++] = c->moves[k];
        n = j - base;
    }
    if (t->n + n > t->cap) {
        Py_ssize_t cap = t->cap ? 2 * t->cap : 64;
        while (cap < t->n + n)
            cap *= 2;
        Node *nodes = PyMem_Realloc(t->nodes, (size_t)cap * sizeof(Node));
        if (nodes == NULL) {
            c->n = base;
            PyErr_NoMemory();
            return -1;
        }
        t->nodes = nodes;
        t->cap = cap;
    }
    int turn = 1 - t->nodes[i].turn;
    t->nodes[i].first = t->n;
    t->nodes[i].nact = n;
    for (Py_ssize_t k = 0; k < n; k++) {
        Node *ch = &t->nodes[t->n++];
        ch->move = c->moves[base + k];
        ch->reward[0] = ch->reward[1] = 0.0;
        ch->visits = 0;
        ch->parent = i;
        ch->first = 0;
        ch->nact = -1;
        ch->nkids = 0;
        ch->turn = turn;
    }
    c->n = base;
    return n;
}

/* The child of node i with the highest UCT score for its side to move; its
 * children are all visited.  At explore 0 the score is the mean reward, which
 * is search's final pick. */
static Py_ssize_t
uct_child(const Tree *t, Py_ssize_t i, double explore)
{
    const Node *p = &t->nodes[i];
    int side = p->turn;
    double log_n = p->visits > 0 ? log((double)p->visits) : 0.0;
    double best_score = -INFINITY;
    Py_ssize_t best = -1;
    for (Py_ssize_t k = p->first; k < p->first + p->nkids; k++) {
        const Node *ch = &t->nodes[k];
        double score = ch->reward[side] / (double)ch->visits
                       + explore * sqrt(log_n / (double)ch->visits);
        if (score > best_score) {
            best_score = score;
            best = k;
        }
    }
    return best;
}

/* Adds pow(discount, dist) * delta and one visit to node i and to each
 * ancestor, dist steps above i; the powers come from t->pows, which must
 * reach node i's depth. */
static void
backup(Tree *t, Py_ssize_t i, const long delta[2])
{
    for (Py_ssize_t dist = 0; i >= 0; dist++) {
        Node *nd = &t->nodes[i];
        double factor = t->pows[dist];
        nd->visits++;
        nd->reward[0] += factor * (double)delta[0];
        nd->reward[1] += factor * (double)delta[1];
        i = nd->parent;
    }
}

/* The next value of a splitmix64 stream (Steele, Lea & Flood, "Fast
 * splittable pseudorandom number generators", OOPSLA 2014), as
 * _pykernel._Stream computes it. */
static uint64_t
splitmix64(uint64_t *state)
{
    uint64_t z = (*state += 0x9E3779B97F4A7C15u);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9u;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBu;
    return z ^ (z >> 31);
}

/* The rollout from (state, turn), as _pykernel._playout: up to sim_depth
 * steps, each the side to move's memo'd minimax move when the rules' minimax
 * depth is at least 1, else the (splitmix64(rng) % len(moves))-th of its
 * moves, until a side has no legal move.  Sets delta[white], delta[red] to
 * the rewards; 0, or -1 on error.  rng is read only at depth 0 and the memo
 * only at depth >= 1.
 *
 * While a step's entry is stored, the walk keeps its index in prev and the
 * position stays in that entry's next, uncopied.  The next step follows
 * prev's link when it is set; otherwise it copies the position to cur (an
 * insert may move the entries), looks it up or inserts it, and links prev
 * to its entry.  A step that a full memo does not store links nothing, and
 * the step after it looks its position up again.
 *
 * The first step's entry keeps the whole rollout (Entry's walked, depth
 * and sum): a walk stores it there when every one of its steps is stored,
 * so that each of them would hit again, and a later rollout from that entry
 * at the same sim_depth returns its sum and counts its lookups, each a hit,
 * as its walk would. */
static int
playout(Call *c, const unsigned char *state, long turn, long sim_depth, uint64_t *rng,
        long delta[2])
{
    Memo *memo = c->memo;
    unsigned char cur[64];
    memcpy(cur, state, 64);
    delta[0] = delta[1] = 0;
    Py_ssize_t prev = -1; /* -1: the position is in cur */
    Py_ssize_t first = -1; /* the first step's entry, while every step is stored */
    long long lookups = memo->steps;
    for (long steps = 0; steps < sim_depth; steps++) {
        Py_ssize_t base = c->n;
        const unsigned char *next = NULL; /* stays NULL when the side has no move */
        long reward = 0;
        Move best;
        if (c->rules.mm_depth < 1) {
            Py_ssize_t n = gen(c, cur, (int)turn);
            if (n < 0)
                return -1;
            if (n > 0) {
                const Move *m = &c->moves[base + (Py_ssize_t)(splitmix64(rng) % (uint64_t)n)];
                reward = m->reward;
                next = m->state;
            }
        }
        else {
            Py_ssize_t k = -1; /* this step's entry, or -1 when it is not stored */
            int found = 0;
            memo->steps++;
            if (prev >= 0 && memo->entries[prev].link != 0) {
                k = memo->entries[prev].link - 1;
                memo->hits++;
            }
            else {
                if (prev >= 0)
                    memcpy(cur, memo->entries[prev].next, 64);
                uint32_t hash = memo_hash(cur, turn);
                size_t slot = 0;
                const Entry *e = memo_find(memo, cur, turn, hash, &slot);
                if (e != NULL) {
                    k = e - memo->entries;
                    memo->hits++;
                }
                else {
                    Masks bm;
                    long mat[4];
                    board_masks(cur, &bm);
                    board_material(&bm, mat);
                    minimax(c, cur, &bm, mat, turn, turn, c->rules.mm_depth, -INFINITY,
                            INFINITY, &best, &found);
                    if (!c->failed)
                        k = memo_insert(c, cur, turn, hash, slot, found, &best);
                    if (c->failed)
                        return -1;
                }
                if (prev >= 0 && k >= 0)
                    memo->entries[prev].link = (uint32_t)k + 1;
            }
            if (steps == 0 || k < 0)
                first = k;
            if (k >= 0) {
                const Entry *e = &memo->entries[k];
                if (steps == 0 && e->walked > 0 && e->depth == sim_depth) {
                    /* this lookup, a hit, was the first of e->walked */
                    memo->steps += e->walked - 1;
                    memo->hits += e->walked - 1;
                    delta[0] = e->sum[0];
                    delta[1] = e->sum[1];
                    return 0;
                }
                if (e->found) {
                    reward = e->reward;
                    next = e->next;
                }
            }
            else if (found) {
                reward = best.reward;
                next = best.state;
            }
            prev = k;
        }
        if (next == NULL)
            break;
        delta[turn == WHITE ? 0 : 1] += reward;
        if (prev < 0)
            memcpy(cur, next, 64);
        c->n = base;
        turn = 1 - turn;
    }
    if (first >= 0) {
        Entry *e = &memo->entries[first];
        e->walked = (long)(memo->steps - lookups);
        e->depth = sim_depth;
        e->sum[0] = delta[0];
        e->sum[1] = delta[1];
    }
    return 0;
}

/* ---- alignment search ---- */

/* _pykernel.TOKENS_MAX says why no token count of a marking graph wraps in
 * 16 bits; SILENT and UNKNOWN are _pykernel's label codes of a silent
 * transition and of an event no transition carries. */
#define TOKENS_MAX 65535
#define SILENT (-1)
#define UNKNOWN (-2)

typedef uint16_t Token;

/* Transition k of a marking graph: its preset, the place indices
 * places[pre .. pre + npre - 1], its postset, likewise from post, its
 * token delta npost - npre and its label code. */
typedef struct {
    Py_ssize_t pre, npre, post, npost, delta;
    int label;
} Step;

/* A successor of an expanded marking: firing transition k there leads to
 * marking mid, and label is k's label code. */
typedef struct {
    uint32_t mid;
    int label;
    Py_ssize_t k;
} Succ;

/* A marking's hash, and its successors succ[first .. first + nsucc - 1];
 * first is -1 until the marking is expanded. */
typedef struct {
    uint32_t hash, nsucc;
    Py_ssize_t first;
} Mark;

/* The markings of one net that respect one cap, grown on demand, as
 * _pykernel's MarkingGraph: marking k is the nplaces token counts
 * tokens[k * nplaces ..], numbered in the order it is first met and found
 * through an open-addressed table of nslots uint32 slots (0 for empty, k
 * for marking k - 1), at most half full.  scratch holds two markings. */
typedef struct {
    Py_ssize_t nplaces, nsteps, cap;
    Step *steps;
    Py_ssize_t *places;
    Token *tokens, *scratch;
    Mark *marks;
    uint32_t *slots;
    Succ *succ;
    size_t nmarks, mark_cap, nslots, nsucc, succ_cap;
    uint32_t initial, final;
    long long expansions;
} Graph;

/* Makes room for `need` items of `size` bytes in the block *p of *cap
 * items, doubling it; 0, or -1 with MemoryError set. */
static int
reserve(void **p, size_t *cap, size_t need, size_t size)
{
    if (need <= *cap)
        return 0;
    size_t n = *cap ? *cap : 64;
    while (n < need)
        n *= 2;
    void *q = n > (size_t)PY_SSIZE_T_MAX / size ? NULL : PyMem_Realloc(*p, n * size);
    if (q == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *p = q;
    *cap = n;
    return 0;
}

static uint32_t
marking_hash(const Token *m, Py_ssize_t nplaces)
{
    uint64_t h = 0x9E3779B97F4A7C15u;
    for (Py_ssize_t p = 0; p < nplaces; p++) {
        h = (h ^ m[p]) * 0xBF58476D1CE4E5B9u;
        h ^= h >> 31;
    }
    return (uint32_t)(h ^ (h >> 32));
}

/* Doubles the slot table of g (from 256) and re-indexes every marking; 0,
 * or -1 with MemoryError set. */
static int
graph_grow_slots(Graph *g)
{
    size_t nslots = g->nslots ? 2 * g->nslots : 256, mask = nslots - 1;
    uint32_t *slots = PyMem_Calloc(nslots, sizeof(uint32_t));
    if (slots == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (size_t k = 0; k < g->nmarks; k++) {
        size_t i = g->marks[k].hash & mask;
        while (slots[i] != 0)
            i = (i + 1) & mask;
        slots[i] = (uint32_t)(k + 1);
    }
    PyMem_Free(g->slots);
    g->slots = slots;
    g->nslots = nslots;
    return 0;
}

/* The number of marking m, which must not point into g->tokens, interned
 * when it is new; -1 with MemoryError set. */
static int64_t
graph_intern(Graph *g, const Token *m)
{
    size_t row = (size_t)g->nplaces * sizeof(Token);
    uint32_t hash = marking_hash(m, g->nplaces);
    if (2 * (g->nmarks + 1) > g->nslots && graph_grow_slots(g) < 0)
        return -1;
    size_t mask = g->nslots - 1, i = hash & mask;
    for (uint32_t k; (k = g->slots[i]) != 0; i = (i + 1) & mask)
        if (g->marks[k - 1].hash == hash && memcmp(g->tokens + (k - 1) * g->nplaces, m, row) == 0)
            return k - 1;
    if (g->nmarks == UINT32_MAX - 1) {
        PyErr_NoMemory();
        return -1;
    }
    if (g->nmarks == g->mark_cap) {
        size_t cap = g->mark_cap;
        if (reserve((void **)&g->marks, &cap, g->nmarks + 1, sizeof(Mark)) < 0)
            return -1;
        /* one byte more, so that a net without places allocates too */
        Token *tokens = cap > ((size_t)PY_SSIZE_T_MAX - 1) / (row + 1)
                        ? NULL : PyMem_Realloc(g->tokens, cap * row + 1);
        if (tokens == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        g->tokens = tokens;
        g->mark_cap = cap;
    }
    Mark *mk = &g->marks[g->nmarks];
    mk->hash = hash;
    mk->nsucc = 0;
    mk->first = -1;
    memcpy(g->tokens + g->nmarks * g->nplaces, m, row);
    g->slots[i] = (uint32_t)++g->nmarks;
    return (int64_t)g->nmarks - 1;
}

/* Fires every transition of g at marking mid, in order, and keeps as its
 * successors those that leave at most the cap's tokens; 0, or -1 with
 * MemoryError set, when mid stays unexpanded. */
static int
graph_expand(Graph *g, uint32_t mid)
{
    Py_ssize_t np = g->nplaces;
    Token *cur = g->scratch, *next = g->scratch + np;
    size_t row = (size_t)np * sizeof(Token), first = g->nsucc;
    memcpy(cur, g->tokens + (size_t)mid * np, row);
    Py_ssize_t room = g->cap;
    for (Py_ssize_t p = 0; p < np; p++)
        room -= cur[p];
    for (Py_ssize_t k = 0; k < g->nsteps; k++) {
        const Step *s = &g->steps[k];
        const Py_ssize_t *pre = g->places + s->pre, *post = g->places + s->post;
        if (s->delta > room)
            continue;
        Py_ssize_t j = 0;
        while (j < s->npre && cur[pre[j]] != 0)
            j++;
        if (j < s->npre)
            continue;
        memcpy(next, cur, row);
        for (j = 0; j < s->npre; j++)
            next[pre[j]]--;
        for (j = 0; j < s->npost; j++)
            next[post[j]]++;
        int64_t nid = graph_intern(g, next);
        if (nid < 0 || reserve((void **)&g->succ, &g->succ_cap, g->nsucc + 1, sizeof(Succ)) < 0) {
            g->nsucc = first;
            return -1;
        }
        g->succ[g->nsucc++] = (Succ){(uint32_t)nid, s->label, k};
    }
    g->marks[mid].first = (Py_ssize_t)first;
    g->marks[mid].nsucc = (uint32_t)(g->nsucc - first);
    g->expansions++;
    return 0;
}

static void
graph_free(Graph *g)
{
    PyMem_Free(g->steps);
    PyMem_Free(g->places);
    PyMem_Free(g->tokens);
    PyMem_Free(g->scratch);
    PyMem_Free(g->marks);
    PyMem_Free(g->slots);
    PyMem_Free(g->succ);
}

/* A state align has reached: its number, marking id * (n + 1) + trace
 * position, the cost it was last reached at, and the move (a path code)
 * and visit it was last reached by; the start's parent is NO_PARENT. */
typedef struct {
    uint64_t state, dist;
    Py_ssize_t move;
    uint32_t parent;
} Visit;

#define NO_PARENT UINT32_MAX

/* One align call's states: its visits in the order first reached, found by
 * number through an open-addressed table of nslots uint32 slots (0 for
 * empty, k for visits[k - 1]), at most half full, and the two FIFO lists
 * of visit indices, those reached at the cost being expanded and those at
 * one more. */
typedef struct {
    Visit *visits;
    uint32_t *slots, *list[2];
    size_t nvisits, visit_cap, nslots, n[2], list_cap[2];
} Search;

static size_t
state_slot(uint64_t state, size_t mask)
{
    uint64_t h = state * 0x9E3779B97F4A7C15u;
    return (size_t)(h ^ (h >> 32)) & mask;
}

/* Reaches `state` at cost `dist` by path code `move` from visit `from`:
 * unless it was reached at a cost <= dist before, records that and appends
 * its visit to list `q`; 0, or -1 with MemoryError set. */
static int
reach(Search *s, uint64_t state, uint64_t dist, Py_ssize_t move, uint32_t from, int q)
{
    if (2 * (s->nvisits + 1) > s->nslots) {
        size_t nslots = s->nslots ? 2 * s->nslots : 256;
        uint32_t *slots = PyMem_Calloc(nslots, sizeof(uint32_t));
        if (slots == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (size_t k = 0; k < s->nvisits; k++) {
            size_t i = state_slot(s->visits[k].state, nslots - 1);
            while (slots[i] != 0)
                i = (i + 1) & (nslots - 1);
            slots[i] = (uint32_t)(k + 1);
        }
        PyMem_Free(s->slots);
        s->slots = slots;
        s->nslots = nslots;
    }
    size_t mask = s->nslots - 1, i = state_slot(state, mask);
    uint32_t k;
    while ((k = s->slots[i]) != 0 && s->visits[k - 1].state != state)
        i = (i + 1) & mask;
    if (k != 0 && s->visits[k - 1].dist <= dist)
        return 0;
    if (reserve((void **)&s->list[q], &s->list_cap[q], s->n[q] + 1, sizeof(uint32_t)) < 0)
        return -1;
    if (k == 0) {
        if (s->nvisits == NO_PARENT - 1) {
            PyErr_NoMemory();
            return -1;
        }
        if (reserve((void **)&s->visits, &s->visit_cap, s->nvisits + 1, sizeof(Visit)) < 0)
            return -1;
        s->visits[s->nvisits].state = state;
        s->slots[i] = k = (uint32_t)++s->nvisits;
    }
    Visit *v = &s->visits[k - 1];
    v->dist = dist;
    v->move = move;
    v->parent = from;
    s->list[q][s->n[q]++] = k - 1;
    return 0;
}

/* align's search (_pykernel.align's docstring states its order) over g for
 * the label codes trace[0 .. n - 1]: 1 with *goal the goal's visit, 0 when
 * no goal is reached under the cap, or -1 with an exception set.
 * *explored counts the states expanded.  A state number fits 64 bits: a
 * marking id is below 2**32, and so is n, or trace would not fit memory. */
static int
align_search(Graph *g, const int *trace, Py_ssize_t n, Search *s, long long *explored,
             uint32_t *goal)
{
    uint64_t width = (uint64_t)n + 1, target = g->final * width + (uint64_t)n;
    uint64_t cost = 0;
    *explored = 0;
    if (reach(s, g->initial * width, 0, 0, NO_PARENT, 0) < 0)
        return -1;
    while (s->n[0] > 0) {
        /* the loop also reads what the 0-cost moves below append to list 0 */
        for (size_t q = 0; q < s->n[0]; q++) {
            uint32_t e = s->list[0][q];
            if (s->visits[e].dist < cost)
                continue; /* a cheaper push of this state was expanded already */
            ++*explored;
            if ((*explored & 0xFFFF) == 0 && PyErr_CheckSignals() < 0)
                return -1;
            uint64_t state = s->visits[e].state;
            if (state == target) {
                *goal = e;
                return 1;
            }
            uint32_t mid = (uint32_t)(state / width);
            Py_ssize_t i = (Py_ssize_t)(state % width);
            if (g->marks[mid].first < 0 && graph_expand(g, mid) < 0)
                return -1;
            const Succ *succ = g->succ + g->marks[mid].first;
            int event = i < n ? trace[i] : UNKNOWN;
            /* push order breaks cost ties: per transition the synchronous
             * move, then the model or silent move; the log move last */
            for (uint32_t j = 0; j < g->marks[mid].nsucc; j++) {
                uint64_t next = succ[j].mid * width + (uint64_t)i;
                if (succ[j].label == event && reach(s, next + 1, cost, 2 * succ[j].k, e, 0) < 0)
                    return -1;
                int model = succ[j].label != SILENT;
                if (reach(s, next, cost + model, 2 * succ[j].k + 1, e, model) < 0)
                    return -1;
            }
            if (i < n && reach(s, state + 1, cost + 1, ~i, e, 1) < 0)
                return -1;
        }
        uint32_t *list = s->list[0];
        size_t list_cap = s->list_cap[0];
        s->list[0] = s->list[1];
        s->list_cap[0] = s->list_cap[1];
        s->n[0] = s->n[1];
        s->list[1] = list;
        s->list_cap[1] = list_cap;
        s->n[1] = 0;
        cost++;
    }
    return 0;
}

static void
search_free(Search *s)
{
    PyMem_Free(s->visits);
    PyMem_Free(s->slots);
    PyMem_Free(s->list[0]);
    PyMem_Free(s->list[1]);
}

/* ---- Python boundary ---- */

static PyObject *
box_move(const Move *m)
{
    PyObject *caps = PyTuple_New(m->ncap);
    if (caps == NULL)
        return NULL;
    for (int i = 0; i < m->ncap; i++) {
        PyObject *id = PyLong_FromLong(m->caps[i]);
        if (id == NULL) {
            Py_DECREF(caps);
            return NULL;
        }
        PyTuple_SET_ITEM(caps, i, id);
    }
    return Py_BuildValue("(iiNNlN)", m->frm, m->to, caps, PyBool_FromLong(m->crowned),
                         m->reward, PyBytes_FromStringAndSize((const char *)m->state, 64));
}

/* Every function takes positional arguments (search also by name) and
 * checks them in _pykernel's order and words: a bytes-like 64-byte state,
 * sides in {0, 1}, points in 0..MAX_POINTS (_pykernel.MAX_POINTS says why no
 * reward sum then overflows a long), a depth of at most MAX_DEPTH
 * (_pykernel.MAX_DEPTH says why the recursion stops there), then its own
 * limits, search's memo last; a failed check sets ValueError, returns 1. */
#define MAX_POINTS 2147483647L
#define MAX_DEPTH 64L
#define SIDE_MSG "side must be 0 (white) or 1 (red)"
#define DEPTH_MSG "minimax depth must be <= 64"

static int
bad_state(Py_ssize_t len)
{
    if (len == 64)
        return 0;
    PyErr_SetString(PyExc_ValueError, "state must be 64 bytes");
    return 1;
}

/* An int argument in lo..hi into *out; an int past a long is clamped to
 * LONG_MIN or LONG_MAX first, so that it compares as it does in _pykernel. */
static int
bad_int(PyObject *o, long lo, long hi, const char *msg, long *out)
{
    int overflow;
    *out = PyLong_AsLongAndOverflow(o, &overflow);
    if (*out == -1 && PyErr_Occurred())
        return 1;
    if (overflow)
        *out = overflow > 0 ? LONG_MAX : LONG_MIN;
    if (*out >= lo && *out <= hi)
        return 0;
    PyErr_SetString(PyExc_ValueError, msg);
    return 1;
}

/* The seed of search's stream: any int, taken mod 2**64; anything else is
 * the TypeError of operator.index. */
static int
bad_seed(PyObject *o, uint64_t *out)
{
    *out = PyLong_AsUnsignedLongLongMask(o);
    return *out == (uint64_t)-1 && PyErr_Occurred();
}

static int
bad_points(PyObject *cap, PyObject *crown, Rules *r)
{
    const char *msg = "capture_points and crown_points must be in 0..2147483647";
    return bad_int(cap, 0, MAX_POINTS, msg, &r->cap_pts)
           || bad_int(crown, 0, MAX_POINTS, msg, &r->crown_pts);
}

#define BOARD(s) ((const unsigned char *)(s))

static PyObject *
py_gen_moves(PyObject *self, PyObject *args)
{
    const char *state;
    Py_ssize_t len;
    long color;
    PyObject *o_color, *cap, *crown;
    Call c = {0};
    if (!PyArg_ParseTuple(args, "y#OpOO:gen_moves", &state, &len, &o_color, &c.rules.forced,
                          &cap, &crown)
            || bad_state(len) || bad_int(o_color, 0, 1, SIDE_MSG, &color)
            || bad_points(cap, crown, &c.rules))
        return NULL;
    PyObject *out = NULL;
    Py_ssize_t n = gen(&c, BOARD(state), (int)color);
    if (n >= 0)
        out = PyList_New(n);
    for (Py_ssize_t i = 0; out != NULL && i < n; i++) {
        PyObject *mv = box_move(&c.moves[i]);
        if (mv == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, mv);
    }
    call_free(&c);
    return out;
}

static PyObject *
py_minimax(PyObject *self, PyObject *args)
{
    const char *state;
    Py_ssize_t len;
    long to_move, agent, depth;
    PyObject *o_to_move, *o_agent, *o_depth, *cap, *crown;
    Call c = {0};
    if (!PyArg_ParseTuple(args, "y#OOOpOOd:minimax", &state, &len, &o_to_move, &o_agent,
                          &o_depth, &c.rules.forced, &cap, &crown, &c.rules.kw)
            || bad_state(len) || bad_int(o_to_move, 0, 1, SIDE_MSG, &to_move)
            || bad_int(o_agent, 0, 1, SIDE_MSG, &agent) || bad_points(cap, crown, &c.rules)
            || bad_int(o_depth, LONG_MIN, MAX_DEPTH, DEPTH_MSG, &depth))
        return NULL;
    /* the recursion stops only at depth 0 */
    if (depth < 0)
        return PyErr_Format(PyExc_ValueError, "minimax requires depth >= 0");
    Move best;
    int found;
    Masks bm;
    long mat[4];
    board_masks(BOARD(state), &bm);
    board_material(&bm, mat);
    double score = minimax(&c, BOARD(state), &bm, mat, to_move, agent, depth, -INFINITY,
                           INFINITY, &best, &found);
    call_free(&c);
    if (c.failed)
        return NULL;
    if (!found)
        return Py_BuildValue("(dO)", score, Py_None);
    return Py_BuildValue("(dN)", score, box_move(&best));
}

static PyObject *
py_rollout(PyObject *self, PyObject *args)
{
    const char *state;
    Py_ssize_t len;
    long to_move, sim_depth;
    PyObject *o_to_move, *o_mm_depth, *cap, *crown;
    Call c = {0};
    if (!PyArg_ParseTuple(args, "y#OlOpOOd:rollout", &state, &len, &o_to_move, &sim_depth,
                          &o_mm_depth, &c.rules.forced, &cap, &crown, &c.rules.kw)
            || bad_state(len) || bad_int(o_to_move, 0, 1, SIDE_MSG, &to_move)
            || bad_points(cap, crown, &c.rules)
            || bad_int(o_mm_depth, LONG_MIN, MAX_DEPTH, DEPTH_MSG, &c.rules.mm_depth))
        return NULL;
    if (c.rules.mm_depth < 1)
        return PyErr_Format(PyExc_ValueError, "rollout requires mm_depth >= 1");
    long delta[2];
    Memo memo = {0};
    c.memo = &memo;
    int rc = playout(&c, BOARD(state), to_move, sim_depth, NULL, delta);
    memo_free(&memo);
    call_free(&c);
    if (rc < 0)
        return NULL;
    return Py_BuildValue("(ll)", delta[0], delta[1]);
}

/* A Memo handle: the Python object around a Memo that a caller passes to
 * many searches.  Only new_memo makes one.
 *
 * A handle keeps the searches made through it at minimax depth >= 1, as
 * the contract says (_pykernel's Memo.searches): a dict from a SearchKey's
 * bytes to ((move, nodes), lookups), the boxed result and the memo
 * lookups the search made.  That is contract, not an inside difference.
 * memo_start empties the dict with the table, and a search that met a
 * full memo leaves it more than half full, so no such search is ever
 * replayed.
 *
 * Its `converted` attribute is a second dict, made with the handle, in
 * which search.py's mcts_search keeps the (ConcreteMove, GameBoard) it
 * built from each kept move, so that a replayed turn builds nothing.  The
 * kernel never reads it; memo_start empties it in the same clear as the
 * kept searches, and mcts_search puts at most MEMO_MAX entries in it.
 * Neither dict holds anything that refers back to the handle (tuples of
 * ints, bools, floats and bytes; frozen moves and boards), so the handle
 * needs no GC support. */
typedef struct {
    PyObject_HEAD
    Memo memo;
} MemoObject;

/* A search's key in its handle's dict: its root and the settings its memo
 * is not bound to, packed with no padding and compared as bytes.  An
 * exploration of -0.0 is packed as 0.0, so the two are one key, as in the
 * pure twin. */
typedef struct {
    unsigned char state[64];
    long side, sim_depth;
    Py_ssize_t iterations;
    double explore, discount;
    long pruning;
} SearchKey;

/* Keeps search result `out`, found with `lookups` memo lookups, under `key`
 * in memo m, unless m keeps MEMO_MAX searches already; 0, or -1 on error. */
static int
memo_keep(Memo *m, PyObject *key, PyObject *out, long long lookups)
{
    if (m->searches == NULL && (m->searches = PyDict_New()) == NULL)
        return -1;
    if (PyDict_GET_SIZE(m->searches) >= MEMO_MAX)
        return 0;
    PyObject *value = Py_BuildValue("(OL)", out, lookups);
    if (value == NULL)
        return -1;
    int rc = PyDict_SetItem(m->searches, key, value);
    Py_DECREF(value);
    return rc;
}

static void
memo_dealloc(PyObject *self)
{
    memo_free(&((MemoObject *)self)->memo);
    Py_TYPE(self)->tp_free(self);
}

static PyObject *
memo_counts(PyObject *self, PyObject *unused)
{
    const Memo *m = &((MemoObject *)self)->memo;
    return Py_BuildValue("(LLnL)", m->steps, m->hits, (Py_ssize_t)m->nentries, m->clears);
}

static PyObject *
memo_converted(PyObject *self, void *unused)
{
    return Py_NewRef(((MemoObject *)self)->memo.converted);
}

static PyMethodDef memo_methods[] = {
    {"counts", memo_counts, METH_NOARGS,
     "counts() -> (steps, hits, entries, clears): the rollout steps looked up, "
     "those found, the entries held and the times the memo was emptied"},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef memo_getset[] = {
    {"converted", memo_converted, NULL,
     "dict of the caller's conversions of kept moves, emptied with the kept searches",
     NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject MemoType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_ckernel.Memo",
    .tp_basicsize = sizeof(MemoObject),
    .tp_dealloc = memo_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "A rollout memo that searches share; made by new_memo().",
    .tp_methods = memo_methods,
    .tp_getset = memo_getset,
};

static PyObject *
py_new_memo(PyObject *self, PyObject *unused)
{
    MemoObject *m = PyObject_New(MemoObject, &MemoType);
    if (m == NULL)
        return NULL;
    memset(&m->memo, 0, sizeof(Memo));
    if ((m->memo.converted = PyDict_New()) == NULL) {
        Py_DECREF(m);
        return NULL;
    }
    return (PyObject *)m;
}

static PyObject *
py_search(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"state", "side", "iterations", "sim_depth", "mm_depth", "forced",
                            "capture_points", "crown_points", "king_weight", "exploration",
                            "discount", "pruning", "seed", "memo", NULL};
    const char *state;
    Py_ssize_t len, iterations;
    long side, sim_depth;
    double explore, discount;
    PyObject *o_side, *o_mm_depth, *cap, *crown, *o_seed, *o_memo = Py_None, *key = NULL;
    Call c = {0};
    Tree t = {0};
    Memo local = {0};
    uint64_t rng;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "y#OnlOpOOdddpO|O:search", names, &state,
                                     &len, &o_side, &iterations, &sim_depth, &o_mm_depth,
                                     &c.rules.forced, &cap, &crown, &c.rules.kw, &explore,
                                     &discount, &t.pruning, &o_seed, &o_memo)
            || bad_seed(o_seed, &rng) || bad_state(len)
            || bad_int(o_side, 0, 1, SIDE_MSG, &side)
            || bad_points(cap, crown, &c.rules)
            || bad_int(o_mm_depth, LONG_MIN, MAX_DEPTH, DEPTH_MSG, &c.rules.mm_depth))
        return NULL;
    if (iterations < 1)
        return PyErr_Format(PyExc_ValueError, "iterations must be >= 1");
    /* a NaN or infinite score would leave UCT without a child */
    if (!(explore >= 0 && explore < INFINITY))
        return PyErr_Format(PyExc_ValueError, "exploration must be finite and >= 0");
    if (!(discount > 0 && discount <= 1))
        return PyErr_Format(PyExc_ValueError, "discount must be in (0, 1]");
    if (o_memo == Py_None)
        c.memo = &local;
    else if (Py_IS_TYPE(o_memo, &MemoType))
        c.memo = &((MemoObject *)o_memo)->memo;
    else
        return PyErr_Format(PyExc_TypeError, "memo must be None or this kernel's new_memo()");
    if (memo_start(c.memo, &c.rules) < 0)
        return NULL;
    if (c.memo != &local && c.rules.mm_depth >= 1) {
        SearchKey k;
        memset(&k, 0, sizeof k);
        memcpy(k.state, state, 64);
        k.side = side;
        k.sim_depth = sim_depth;
        k.iterations = iterations;
        k.explore = explore + 0.0;
        k.discount = discount;
        k.pruning = t.pruning;
        key = PyBytes_FromStringAndSize((const char *)&k, sizeof k);
        if (key == NULL)
            return NULL;
        PyObject *kept = NULL;
        if (c.memo->searches != NULL
                && (kept = PyDict_GetItemWithError(c.memo->searches, key)) == NULL
                && PyErr_Occurred()) {
            Py_DECREF(key);
            return NULL;
        }
        if (kept != NULL) {
            long long lookups = PyLong_AsLongLong(PyTuple_GET_ITEM(kept, 1));
            c.memo->steps += lookups;
            c.memo->hits += lookups;
            Py_DECREF(key);
            return Py_NewRef(PyTuple_GET_ITEM(kept, 0));
        }
    }
    long long lookups = c.memo->steps;
    PyObject *out = NULL;
    t.nodes = PyMem_Calloc(1, sizeof(Node));
    /* zeroed, so that a power read before it is filled (a bug) reads 0, not
     * a power an earlier search left in the block */
    t.pows = PyMem_Calloc((size_t)iterations + 1, sizeof(double));
    if (t.nodes == NULL || t.pows == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    t.n = t.cap = 1;
    memcpy(t.nodes[0].move.state, state, 64);
    t.nodes[0].parent = -1;
    t.nodes[0].nact = -1;
    t.nodes[0].turn = (int)side;
    Py_ssize_t nact = tree_actions(&t, &c, 0), nodes = 0;
    if (nact <= 0) {
        if (nact == 0)
            out = Py_NewRef(Py_None);
        goto done;
    }
    for (Py_ssize_t it = 0; it < iterations; it++) {
        if (PyErr_CheckSignals() < 0)
            goto done;
        Py_ssize_t i = 0, depth = 0;
        while (t.nodes[i].nkids > 0 && t.nodes[i].nkids == t.nodes[i].nact) {
            i = uct_child(&t, i, explore);
            depth++;
        }
        Py_ssize_t n = tree_actions(&t, &c, i);
        if (n < 0)
            goto done;
        if (n > 0) {
            i = t.nodes[i].first + t.nodes[i].nkids++;
            nodes++;
            depth++;
        }
        for (; t.npows <= depth; t.npows++)
            t.pows[t.npows] = pow(discount, (double)t.npows);
        /* the leaf is never the root, so it always has an entry move; the
         * playout does not grow the arena, so its state may point into it */
        long delta[2];
        if (playout(&c, t.nodes[i].move.state, t.nodes[i].turn, sim_depth, &rng, delta) < 0)
            goto done;
        delta[1 - t.nodes[i].turn] += t.nodes[i].move.reward;
        backup(&t, i, delta);
    }
    Py_ssize_t best = uct_child(&t, 0, 0.0);
    out = Py_BuildValue("(Nn)", box_move(&t.nodes[best].move), nodes);
    if (out != NULL && key != NULL && memo_keep(c.memo, key, out, c.memo->steps - lookups) < 0)
        Py_CLEAR(out);
done:
    Py_XDECREF(key);
    PyMem_Free(t.nodes);
    PyMem_Free(t.pows);
    memo_free(&local);
    call_free(&c);
    return out;
}

/* A marking graph handle: the Python object around a Graph, and the dict
 * that maps each visible label to its code.  Only new_marking_graph makes
 * one.  The dict holds only str keys and int values, so the handle needs no
 * GC support. */
typedef struct {
    PyObject_HEAD
    Graph graph;
    PyObject *codes;
} GraphObject;

static void
graph_dealloc(PyObject *self)
{
    graph_free(&((GraphObject *)self)->graph);
    Py_XDECREF(((GraphObject *)self)->codes);
    Py_TYPE(self)->tp_free(self);
}

static PyObject *
graph_counts(PyObject *self, PyObject *unused)
{
    const Graph *g = &((GraphObject *)self)->graph;
    size_t expanded = 0;
    for (size_t k = 0; k < g->nmarks; k++)
        expanded += g->marks[k].first >= 0;
    return Py_BuildValue("(nnL)", (Py_ssize_t)g->nmarks, (Py_ssize_t)expanded, g->expansions);
}

static PyMethodDef graph_methods[] = {
    {"counts", graph_counts, METH_NOARGS,
     "counts() -> (markings, expanded, expansions): the markings met, those whose "
     "successors are computed, and the times a marking was expanded"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject GraphType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_ckernel.MarkingGraph",
    .tp_basicsize = sizeof(GraphObject),
    .tp_dealloc = graph_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "The markings of one net under one token cap; made by new_marking_graph().",
    .tp_methods = graph_methods,
};

#define TOKENS_MSG "a marking must hold 0..65535 tokens, none negative"
#define PLACES_MSG "a preset or postset must hold distinct place indices in 0..places - 1"

/* The token counts of marking o, a tuple, into the new block *out (freed
 * by the caller) and its length into *n; 0, or -1 with the exception of
 * _pykernel's checks, in their order, set. */
static int
bad_marking(PyObject *o, Token **out, Py_ssize_t *n)
{
    if (!PyTuple_Check(o)) {
        PyErr_SetString(PyExc_TypeError, "a marking must be a tuple");
        return -1;
    }
    *n = PyTuple_GET_SIZE(o);
    long *counts = PyMem_Malloc((size_t)*n * sizeof(long) + 1);
    if (counts == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    int rc = 0;
    for (Py_ssize_t p = 0; p < *n && rc == 0; p++)
        rc = bad_int(PyTuple_GET_ITEM(o, p), LONG_MIN, LONG_MAX, "", &counts[p]);
    long total = 0;
    for (Py_ssize_t p = 0; p < *n && rc == 0; p++) {
        if (counts[p] < 0 || counts[p] > TOKENS_MAX - total) {
            PyErr_SetString(PyExc_ValueError, TOKENS_MSG);
            rc = 1;
        }
        else
            total += counts[p];
    }
    if (rc == 0 && (*out = PyMem_Malloc((size_t)*n * sizeof(Token) + 1)) == NULL) {
        PyErr_NoMemory();
        rc = 1;
    }
    for (Py_ssize_t p = 0; p < *n && rc == 0; p++)
        (*out)[p] = (Token)counts[p];
    PyMem_Free(counts);
    return rc ? -1 : 0;
}

/* The place indices of preset or postset o, a tuple, appended to
 * g->places from *at on; 0, or -1 with TypeError set, as _pykernel's
 * _tuple_of_ints. */
static int
bad_places(PyObject *o, Graph *g, Py_ssize_t *at)
{
    if (!PyTuple_Check(o)) {
        PyErr_SetString(PyExc_TypeError, "a preset or postset must be a tuple");
        return -1;
    }
    Py_ssize_t n = PyTuple_GET_SIZE(o);
    size_t cap = (size_t)*at;
    if (reserve((void **)&g->places, &cap, (size_t)(*at + n), sizeof(Py_ssize_t)) < 0)
        return -1;
    for (Py_ssize_t j = 0; j < n; j++) {
        long p;
        if (bad_int(PyTuple_GET_ITEM(o, j), LONG_MIN, LONG_MAX, "", &p))
            return -1;
        g->places[*at + j] = p;
    }
    *at += n;
    return 0;
}

/* Whether the n place indices at `places` are distinct and in 0..nplaces - 1. */
static int
good_places(const Py_ssize_t *places, Py_ssize_t n, Py_ssize_t nplaces)
{
    for (Py_ssize_t j = 0; j < n; j++) {
        if (places[j] < 0 || places[j] >= nplaces)
            return 0;
        for (Py_ssize_t i = 0; i < j; i++)
            if (places[i] == places[j])
                return 0;
    }
    return 1;
}

static PyObject *
py_new_marking_graph(PyObject *self, PyObject *args)
{
    PyObject *steps, *o_initial, *o_final, *o_cap;
    long cap;
    Token *initial = NULL, *final = NULL;
    Py_ssize_t nplaces, nfinal;
    if (!PyArg_ParseTuple(args, "OOOO:new_marking_graph", &steps, &o_initial, &o_final, &o_cap)
            || bad_int(o_cap, 0, TOKENS_MAX, "cap must be in 0..65535", &cap))
        return NULL;
    GraphObject *go = PyObject_New(GraphObject, &GraphType);
    if (go == NULL)
        return NULL;
    Graph *g = &go->graph;
    memset(g, 0, sizeof(Graph));
    g->cap = cap;
    if ((go->codes = PyDict_New()) == NULL || bad_marking(o_initial, &initial, &nplaces) < 0
            || bad_marking(o_final, &final, &nfinal) < 0)
        goto fail;
    if (nplaces != nfinal) {
        PyErr_SetString(PyExc_ValueError,
                        "initial and final markings must have one count per place");
        goto fail;
    }
    if (!PyTuple_Check(steps)) {
        PyErr_SetString(PyExc_TypeError, "steps must be a tuple");
        goto fail;
    }
    g->nplaces = nplaces;
    g->nsteps = PyTuple_GET_SIZE(steps);
    g->steps = PyMem_Malloc((size_t)g->nsteps * sizeof(Step) + 1);
    g->scratch = PyMem_Malloc(2 * (size_t)nplaces * sizeof(Token) + 1);
    if (g->steps == NULL || g->scratch == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    Py_ssize_t at = 0;
    for (Py_ssize_t k = 0; k < g->nsteps; k++) {
        PyObject *step = PyTuple_GET_ITEM(steps, k), *label;
        Step *s = &g->steps[k];
        if (!PyTuple_Check(step) || PyTuple_GET_SIZE(step) != 3) {
            PyErr_SetString(PyExc_TypeError, "a step must be a tuple (preset, postset, label)");
            goto fail;
        }
        s->pre = at;
        if (bad_places(PyTuple_GET_ITEM(step, 0), g, &at) < 0)
            goto fail;
        s->post = at;
        if (bad_places(PyTuple_GET_ITEM(step, 1), g, &at) < 0)
            goto fail;
        s->npre = s->post - s->pre;
        s->npost = at - s->post;
        s->delta = s->npost - s->npre;
        if (!good_places(g->places + s->pre, s->npre, nplaces)
                || !good_places(g->places + s->post, s->npost, nplaces)) {
            PyErr_SetString(PyExc_ValueError, PLACES_MSG);
            goto fail;
        }
        label = PyTuple_GET_ITEM(step, 2);
        if (label == Py_None)
            s->label = SILENT;
        else if (PyUnicode_Check(label)) {
            PyObject *code = PyDict_GetItemWithError(go->codes, label);
            if (code == NULL) {
                if (PyErr_Occurred()
                        || (code = PyLong_FromSsize_t(PyDict_GET_SIZE(go->codes))) == NULL)
                    goto fail;
                int rc = PyDict_SetItem(go->codes, label, code);
                Py_DECREF(code);
                if (rc < 0)
                    goto fail;
            }
            s->label = (int)PyLong_AsLong(code);
        }
        else {
            PyErr_SetString(PyExc_TypeError, "a label must be a str or None");
            goto fail;
        }
    }
    int64_t mid = graph_intern(g, initial);
    if (mid < 0)
        goto fail;
    g->initial = (uint32_t)mid;
    if ((mid = graph_intern(g, final)) < 0)
        goto fail;
    g->final = (uint32_t)mid;
    PyMem_Free(initial);
    PyMem_Free(final);
    return (PyObject *)go;
fail:
    PyMem_Free(initial);
    PyMem_Free(final);
    Py_DECREF(go);
    return NULL;
}

static PyObject *
py_align(PyObject *self, PyObject *args)
{
    PyObject *o_graph, *events, *out = NULL;
    if (!PyArg_ParseTuple(args, "OO:align", &o_graph, &events))
        return NULL;
    if (!Py_IS_TYPE(o_graph, &GraphType))
        return PyErr_Format(PyExc_TypeError, "graph must be this kernel's new_marking_graph()");
    if (!PyTuple_Check(events))
        return PyErr_Format(PyExc_TypeError, "events must be a tuple");
    GraphObject *go = (GraphObject *)o_graph;
    Py_ssize_t n = PyTuple_GET_SIZE(events);
    int *trace = PyMem_Malloc((size_t)n * sizeof(int) + 1);
    if (trace == NULL)
        return PyErr_NoMemory();
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *code = PyDict_GetItemWithError(go->codes, PyTuple_GET_ITEM(events, i));
        if (code == NULL && PyErr_Occurred()) {
            PyMem_Free(trace);
            return NULL;
        }
        trace[i] = code == NULL ? UNKNOWN : (int)PyLong_AsLong(code);
    }
    Search s = {0};
    long long explored;
    uint32_t goal;
    int rc = align_search(&go->graph, trace, n, &s, &explored, &goal);
    if (rc == 0)
        out = Py_BuildValue("(OLO)", Py_None, explored, Py_None);
    else if (rc > 0) {
        Py_ssize_t len = 0;
        for (uint32_t e = goal; s.visits[e].parent != NO_PARENT; e = s.visits[e].parent)
            len++;
        PyObject *path = PyTuple_New(len);
        for (uint32_t e = goal; path != NULL && len > 0; e = s.visits[e].parent) {
            PyObject *code = PyLong_FromSsize_t(s.visits[e].move);
            if (code == NULL)
                Py_CLEAR(path);
            else
                PyTuple_SET_ITEM(path, --len, code);
        }
        if (path != NULL)
            out = Py_BuildValue("(KLN)", (unsigned long long)s.visits[goal].dist, explored,
                                path);
    }
    search_free(&s);
    PyMem_Free(trace);
    return out;
}

static PyMethodDef methods[] = {
    {"gen_moves", py_gen_moves, METH_VARARGS,
     "gen_moves(state, color, forced, capture_points, crown_points) -> list of "
     "(from_idx, to_idx, captured_ids, crowned, reward, new_state)"},
    {"minimax", py_minimax, METH_VARARGS,
     "minimax(state, to_move, agent, depth, forced, capture_points, crown_points, "
     "king_weight) -> (score, move or None)"},
    {"rollout", py_rollout, METH_VARARGS,
     "rollout(state, to_move, sim_depth, mm_depth, forced, capture_points, "
     "crown_points, king_weight) -> (white_reward, red_reward)"},
    {"search", (PyCFunction)(void (*)(void))py_search, METH_VARARGS | METH_KEYWORDS,
     "search(state, side, iterations, sim_depth, mm_depth, forced, capture_points, "
     "crown_points, king_weight, exploration, discount, pruning, seed, memo=None) -> "
     "(move, nodes) or None when side has no legal move; seed (any int, taken "
     "mod 2**64) starts the splitmix64 stream of the minimax-depth-0 random moves; "
     "memo, from new_memo(), holds rollout steps, and at minimax depth >= 1 whole "
     "searches, across searches"},
    {"new_memo", py_new_memo, METH_NOARGS,
     "new_memo() -> an empty rollout memo for search's memo argument"},
    {"new_marking_graph", py_new_marking_graph, METH_VARARGS,
     "new_marking_graph(steps, initial, final, cap) -> an empty marking graph for align: "
     "steps holds a (preset, postset, label) per transition, label None when silent"},
    {"align", py_align, METH_VARARGS,
     "align(graph, events) -> (raw_cost, states_explored, path codes), or (None, "
     "states_explored, None) when no alignment exists under the graph's cap"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_ckernel",
    "Compiled twin of _pykernel's gen_moves, minimax, rollout, search and new_memo.",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    if (PyType_Ready(&MemoType) < 0 || PyType_Ready(&GraphType) < 0)
        return NULL;
    init_tables();
    return PyModule_Create(&module);
}
