/* Compiled twin of the four hot _pykernel ops: gen_moves, alpha-beta
 * minimax, rollout and search (the whole MCTS turn), and of new_memo.  The
 * other ops, winner among them, are _pykernel's on every backend.
 *
 * _pykernel.py's module docstring states the contract the twins keep: board
 * encoding, move order, the first-in-order tie rule, the float operations
 * and their order, the one rollout loop (playout here), the final pick
 * (uct_child at exploration 0) and the rollout memo.  The parity tests hold
 * the two to identical outputs.  Four things differ inside: gen finds the
 * movable pieces from 64-bit masks of the board (own pieces, opponent
 * pieces, empty squares) where _pykernel scans the squares, and emits the
 * same moves in the same order; minimax scores a leaf from material counts
 * carried down the search (a move changes them only by its captures and
 * its crowning) where _pykernel counts the leaf's board, the same float
 * expression on the same counts, so it is bit-identical on every board;
 * the memo is an open-addressed table where _pykernel keeps a dict; and
 * each memo entry links to the entry of the step after it, so a rollout
 * walking entries it has linked neither hashes nor copies a board, yet
 * counts each followed link as the step and the hit its lookup would be.
 * search calls no Python code.  playmine/kernel/__init__.py compiles this
 * file on first import; gen needs the GCC/Clang builtin __builtin_ctzll,
 * and a compiler without it fails the build, so the pure kernel is used
 * and the reason logged.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define WHITE 0
#define KING_FLAG 0x20
#define RED_FLAG 0x40
#define ID_MASK 0x1F

/* Longest capture chain on any 64-byte state.  A jump moves the piece by
 * (+-2, +-2), so the parities of the mover's x and y never change, and the
 * piece it captures sat halfway, on an interior square (x and y in 1..6)
 * whose x and y have the other parities.  There are 3 x 3 such squares and
 * each is emptied by its capture, so no chain captures more than 9 pieces.
 * The parity tests play a 9-capture chain. */
#define MAXCAPS 9

/* A step in direction d moves a piece from square idx to idx + DELTA[d],
 * by (dx, dy) = (1, 1), (1, -1), (-1, 1) and (-1, -1) in turn: white men
 * use the first two directions, red men the last two. */
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
    long reward;
    unsigned char caps[MAXCAPS];
    unsigned char state[64];
} Move;

/* One rollout step's outcome, as the memo keeps it: the side `side` to move
 * on `state` has no legal move (found 0), or its minimax move earns
 * `reward` and leads to `next`.  `link` is 0 until a rollout takes the step
 * from (next, 1 - side) after this one; then it is k + 1 for the entry
 * entries[k] of that step.  Entries are never removed but all at once, and
 * memo_insert zeroes the link, so a link once set stays right. */
typedef struct {
    unsigned char state[64];
    unsigned char next[64];
    long reward;
    uint32_t hash, link;
    unsigned char side, found;
} Entry;

/* A rollout memo holds at most this many entries: 5.0 MB of entries (152
 * bytes each on x86-64) and 256 KB of slots.  Past it the memo answers
 * lookups and inserts no more; _pykernel.MEMO_MAX is the same bound on its
 * dict. */
#define MEMO_MAX 32768

/* A rollout memo: an open-addressed table of nslots (a power of two) uint32
 * slots, 0 for empty and k for entries[k - 1], over a dense array of
 * entries; both are allocated on the first insert and freed by memo_free.
 * `bound` says whether a search has fixed the rules, points, king weight
 * and minimax depth the entries hold steps of.  steps counts the rollout
 * steps looked up, hits those found, clears the times it was emptied. */
typedef struct {
    uint32_t *slots;
    Entry *entries;
    size_t nslots, nentries, entry_cap;
    int bound, forced;
    long cap_pts, crown_pts, mm_depth;
    double kw;
    long long steps, hits, clears;
} Memo;

/* One kernel call: its rules, the stack that every move it generates is
 * pushed on, so there is no fixed move limit, and its rollout memo.  A
 * minimax level pushes its moves on top and pops them before returning;
 * moves are addressed by index because growing the stack may move it, and
 * no state argument ever points into it. */
typedef struct {
    int forced;
    long cap_pts, crown_pts;
    double kw;
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

/* Jump search for one piece: the board without the mover, and the ids
 * captured so far. */
typedef struct {
    unsigned char work[64];
    unsigned char caps[MAXCAPS];
    unsigned char piece;
    int from, color, king, far_x, d0, d1;
} Chain;

static int
emit_chain(Call *c, const Chain *ch, int land, int ncap, int kcap, int crowned)
{
    Move *m = push(c);
    if (m == NULL)
        return -1;
    m->frm = (unsigned char)ch->from;
    m->to = (unsigned char)land;
    m->ncap = (unsigned char)ncap;
    m->kcap = (unsigned char)kcap;
    m->crowned = (unsigned char)crowned;
    m->reward = c->cap_pts * ncap + (crowned ? c->crown_pts : 0);
    memcpy(m->caps, ch->caps, (size_t)ncap);
    memcpy(m->state, ch->work, 64);
    m->state[land] = crowned ? (ch->piece | KING_FLAG) : ch->piece;
    return 0;
}

/* DFS over jump continuations from square sq, ncap pieces captured so far,
 * kcap of them kings; emits every chain that cannot be extended.  Returns 1
 * if a jump was found, 0 if none, -1 on error. */
static int
extend_chains(Call *c, Chain *ch, int sq, int ncap, int kcap)
{
    int jumped = 0;
    for (int d = ch->d0; d < ch->d1; d++) {
        if (!((JUMP_ON[d] >> sq) & 1))
            continue;
        int mid = sq + DELTA[d], land = mid + DELTA[d];
        unsigned char mv = ch->work[mid];
        if (mv == 0 || ((mv >> 6) & 1) == ch->color)
            continue;
        if (ch->work[land] != 0)
            continue;
        jumped = 1;
        ch->work[mid] = 0;
        ch->caps[ncap] = mv & ID_MASK;
        int nk = kcap + ((mv & KING_FLAG) != 0), rc;
        if (!ch->king && (land >> 3) == ch->far_x) {
            /* crowning ends a man's chain */
            rc = emit_chain(c, ch, land, ncap + 1, nk, 1);
        }
        else {
            rc = extend_chains(c, ch, land, ncap + 1, nk);
            if (rc == 0)
                rc = emit_chain(c, ch, land, ncap + 1, nk, 0);
        }
        if (rc < 0)
            return -1;
        ch->work[mid] = mv;
    }
    return jumped;
}

/* The top bit of each byte of w, as an 8-bit mask: byte k's is bit k. */
static inline uint64_t
byte_tops(uint64_t w)
{
    return (((w >> 7) & 0x0101010101010101ULL) * 0x0102040810204080ULL) >> 56;
}

/* The squares of `color`'s pieces, of its kings and of the opponent's
 * pieces, as masks whose bit idx is square idx.  The state is read 8
 * squares to a 64-bit word, byte k of word i being square 8 i + k. */
static void
board_masks(const unsigned char *state, int color, uint64_t *own, uint64_t *kings,
            uint64_t *opp)
{
    const uint64_t low7 = 0x7F7F7F7F7F7F7F7FULL;
    *own = *kings = *opp = 0;
    for (int i = 0; i < 8; i++) {
        uint64_t w;
        memcpy(&w, state + 8 * i, 8);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
        w = __builtin_bswap64(w);
#endif
        /* top bit of each byte: the square is not empty, the piece is red,
         * the piece is a king */
        uint64_t busy = ((w & low7) + low7) | w, red = w << 1, king = w << 2;
        uint64_t mine = busy & (color == WHITE ? ~red : red);
        *own |= byte_tops(mine) << (8 * i);
        *kings |= byte_tops(mine & king) << (8 * i);
        *opp |= byte_tops(busy & ~mine) << (8 * i);
    }
}

/* The squares s whose square s + delta is in mask m. */
static inline uint64_t
toward(uint64_t m, int delta)
{
    return delta > 0 ? m >> delta : m << -delta;
}

/* Pushes every legal move of `color`: per piece in ascending board index
 * its capture chains, then its quiet steps, each in direction order; with
 * forced capture and any capture available only the captures.  That is
 * _pykernel.gen_moves's order, but the squares are not scanned one by one:
 * from the board's masks, one mask per direction holds the pieces that can
 * step that way and one the pieces that can start a jump that way (an
 * opponent next to them, an empty square beyond), both kept on the board
 * by STEP_ON and JUMP_ON.  Only the pieces in these masks are visited, in
 * ascending index by count-trailing-zeros, and only a jump starter enters
 * extend_chains.  A jump starter has a chain, so with forced capture and
 * any jump starter no quiet step is built.  Returns the number of moves
 * pushed, or -1 on error. */
static Py_ssize_t
gen(Call *c, const unsigned char *state, int color)
{
    Py_ssize_t base = c->n;
    uint64_t own, kings, opp;
    board_masks(state, color, &own, &kings, &opp);
    uint64_t empty = ~(own | opp), steps[4], steppers = 0, jumpers = 0;
    /* white men move toward x = 7 (dirs 0-1), red men toward x = 0 */
    int far_x = color == WHITE ? 7 : 0, men_d0 = color == WHITE ? 0 : 2;
    for (int d = 0; d < 4; d++) {
        uint64_t movers = (d & 2) == men_d0 ? own : kings;
        steps[d] = movers & STEP_ON[d] & toward(empty, DELTA[d]);
        steppers |= steps[d];
        jumpers |= movers & JUMP_ON[d] & toward(opp, DELTA[d])
                   & toward(empty, 2 * DELTA[d]);
    }
    int quiet = !(c->forced && jumpers);
    Chain ch;
    ch.color = color;
    ch.far_x = far_x;
    if (jumpers)
        memcpy(ch.work, state, 64);
    for (uint64_t walk = jumpers | (quiet ? steppers : 0); walk; walk &= walk - 1) {
        int idx = __builtin_ctzll(walk);
        unsigned char piece = state[idx];
        int king = (piece & KING_FLAG) != 0;
        if ((jumpers >> idx) & 1) {
            ch.from = idx;
            ch.piece = piece;
            ch.king = king;
            ch.d0 = king ? 0 : men_d0;
            ch.d1 = king ? 4 : men_d0 + 2;
            ch.work[idx] = 0;
            if (extend_chains(c, &ch, idx, 0, 0) < 0)
                return -1;
            ch.work[idx] = piece;
        }
        for (int d = 0; quiet && d < 4; d++) {
            if (!((steps[d] >> idx) & 1))
                continue;
            int to = idx + DELTA[d], crowned = !king && (to >> 3) == far_x;
            Move *m = push(c);
            if (m == NULL)
                return -1;
            m->frm = (unsigned char)idx;
            m->to = (unsigned char)to;
            m->ncap = 0;
            m->kcap = 0;
            m->crowned = (unsigned char)crowned;
            m->reward = crowned ? c->crown_pts : 0;
            memcpy(m->state, state, 64);
            m->state[idx] = 0;
            m->state[to] = crowned ? (piece | KING_FLAG) : piece;
        }
    }
    return c->n - base;
}

/* A board's material: its white men, white kings, red men and red kings. */
static void
count_material(const unsigned char *state, long mat[4])
{
    mat[0] = mat[1] = mat[2] = mat[3] = 0;
    for (int idx = 0; idx < 64; idx++) {
        unsigned char v = state[idx];
        if (v != 0)
            mat[((v & RED_FLAG) ? 2 : 0) + ((v & KING_FLAG) ? 1 : 0)]++;
    }
}

/* The material after `color` plays m: the captured men and kings leave,
 * and a crowning turns one of the mover's men into a king.  It equals
 * count_material of m->state. */
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
 * `mat` is the material of `state`, and each child's is derived from it by
 * child_material, so a leaf is scored by evaluate from counts without
 * scanning its board: a depth-1 node scores its children that way, with no
 * copy of their states and no call below it. */
static double
minimax(Call *c, const unsigned char *state, const long mat[4], long to_move, long agent,
        long depth, double alpha, double beta, Move *best, int *found)
{
    if (found != NULL)
        *found = 0;
    if (depth == 0)
        return evaluate(mat, agent, c->kw);
    Py_ssize_t base = c->n, n = gen(c, state, (int)to_move);
    if (n < 0)
        return 0.0;
    if (n == 0)
        return evaluate(mat, agent, c->kw);
    int maximizing = to_move == agent;
    double best_score = maximizing ? -INFINITY : INFINITY;
    Py_ssize_t best_i = -1;
    unsigned char child[64];
    long child_mat[4];
    for (Py_ssize_t i = 0; i < n; i++) {
        child_material(mat, &c->moves[base + i], to_move, child_mat);
        double score;
        if (depth == 1) {
            score = evaluate(child_mat, agent, c->kw);
        }
        else {
            memcpy(child, c->moves[base + i].state, 64);
            score = minimax(c, child, child_mat, 1 - to_move, agent, depth - 1, alpha, beta,
                            NULL, NULL);
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
}

#define MEMO_RULES_MSG \
    "memo holds rollout steps of other rules: forced capture, points, king weight " \
    "or minimax depth differ"

/* Readies memo m for a search with c's rules at minimax depth mm_depth: the
 * first search binds m to them and a later one with any other value sets
 * ValueError and returns -1.  Then a memo more than half full is emptied,
 * keeping its allocations, so every search has room for at least half of
 * MEMO_MAX new entries. */
static int
memo_start(Memo *m, const Call *c, long mm_depth)
{
    if (!m->bound) {
        m->bound = 1;
        m->forced = c->forced;
        m->cap_pts = c->cap_pts;
        m->crown_pts = c->crown_pts;
        m->kw = c->kw;
        m->mm_depth = mm_depth;
    }
    else if (m->forced != c->forced || m->cap_pts != c->cap_pts
             || m->crown_pts != c->crown_pts || m->kw != c->kw || m->mm_depth != mm_depth) {
        PyErr_SetString(PyExc_ValueError, MEMO_RULES_MSG);
        return -1;
    }
    if (m->nentries > MEMO_MAX / 2) {
        memset(m->slots, 0, m->nslots * sizeof(uint32_t));
        m->nentries = 0;
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
 * slots.  Nodes are addressed by index, since growing may move it.  pows[k]
 * is pow(discount, k) for k < npows, grown as the tree deepens. */
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

/* Makes t->pows hold pow(discount, k) for every k <= depth; 0, or -1 with
 * MemoryError set. */
static int
tree_pows(Tree *t, Py_ssize_t depth, double discount)
{
    Py_ssize_t n = t->npows ? t->npows : 16;
    while (n <= depth)
        n *= 2;
    double *pows = PyMem_Realloc(t->pows, (size_t)n * sizeof(double));
    if (pows == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t k = t->npows; k < n; k++)
        pows[k] = pow(discount, (double)k);
    t->pows = pows;
    t->npows = n;
    return 0;
}

/* Adds pow(discount, dist) * delta and one visit to node i and to each
 * ancestor, dist steps above i; the powers come from the tree's table
 * t->pows, which must reach node i's depth. */
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
 * steps, each the side to move's memo'd depth-mm_depth minimax move at
 * mm_depth >= 1, else the (splitmix64(rng) % len(moves))-th of its moves,
 * until a side has no legal move.  Adds the rewards to delta[white],
 * delta[red]; 0, or -1 on error.  rng is read only at depth 0 and the memo
 * only at depth >= 1.
 *
 * While a step's entry is stored, the walk keeps its index in prev and the
 * position stays in that entry's next, uncopied.  The next step follows
 * prev's link when it is set; otherwise it copies the position to cur (an
 * insert may move the entries), looks it up or inserts it, and links prev
 * to its entry.  A step that a full memo does not store links nothing, and
 * the step after it looks its position up again. */
static int
playout(Call *c, const unsigned char *state, long turn, long sim_depth,
        long mm_depth, uint64_t *rng, long delta[2])
{
    Memo *memo = c->memo;
    unsigned char cur[64];
    memcpy(cur, state, 64);
    Py_ssize_t prev = -1; /* -1: the position is in cur */
    for (long steps = 0; steps < sim_depth; steps++) {
        Py_ssize_t base = c->n;
        const unsigned char *next = NULL; /* stays NULL when the side has no move */
        long reward = 0;
        Move best;
        if (mm_depth < 1) {
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
                    long mat[4];
                    count_material(cur, mat);
                    minimax(c, cur, mat, turn, turn, mm_depth, -INFINITY, INFINITY, &best,
                            &found);
                    if (!c->failed)
                        k = memo_insert(c, cur, turn, hash, slot, found, &best);
                    if (c->failed)
                        return -1;
                }
                if (prev >= 0 && k >= 0)
                    memo->entries[prev].link = (uint32_t)k + 1;
            }
            if (k >= 0) {
                const Entry *e = &memo->entries[k];
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
    return 0;
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
bad_points(PyObject *cap, PyObject *crown, Call *c)
{
    const char *msg = "capture_points and crown_points must be in 0..2147483647";
    return bad_int(cap, 0, MAX_POINTS, msg, &c->cap_pts)
           || bad_int(crown, 0, MAX_POINTS, msg, &c->crown_pts);
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
    if (!PyArg_ParseTuple(args, "y#OpOO:gen_moves", &state, &len, &o_color, &c.forced,
                          &cap, &crown)
            || bad_state(len) || bad_int(o_color, 0, 1, SIDE_MSG, &color)
            || bad_points(cap, crown, &c))
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
                          &o_depth, &c.forced, &cap, &crown, &c.kw)
            || bad_state(len) || bad_int(o_to_move, 0, 1, SIDE_MSG, &to_move)
            || bad_int(o_agent, 0, 1, SIDE_MSG, &agent) || bad_points(cap, crown, &c)
            || bad_int(o_depth, LONG_MIN, MAX_DEPTH, DEPTH_MSG, &depth))
        return NULL;
    /* the recursion stops only at depth 0 */
    if (depth < 0)
        return PyErr_Format(PyExc_ValueError, "minimax requires depth >= 0");
    Move best;
    int found;
    long mat[4];
    count_material(BOARD(state), mat);
    double score = minimax(&c, BOARD(state), mat, to_move, agent, depth, -INFINITY, INFINITY,
                           &best, &found);
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
    long to_move, sim_depth, mm_depth;
    PyObject *o_to_move, *o_mm_depth, *cap, *crown;
    Call c = {0};
    if (!PyArg_ParseTuple(args, "y#OlOpOOd:rollout", &state, &len, &o_to_move, &sim_depth,
                          &o_mm_depth, &c.forced, &cap, &crown, &c.kw)
            || bad_state(len) || bad_int(o_to_move, 0, 1, SIDE_MSG, &to_move)
            || bad_points(cap, crown, &c)
            || bad_int(o_mm_depth, LONG_MIN, MAX_DEPTH, DEPTH_MSG, &mm_depth))
        return NULL;
    if (mm_depth < 1)
        return PyErr_Format(PyExc_ValueError, "rollout requires mm_depth >= 1");
    long delta[2] = {0, 0};
    Memo memo = {0};
    c.memo = &memo;
    int rc = playout(&c, BOARD(state), to_move, sim_depth, mm_depth, NULL, delta);
    memo_free(&memo);
    call_free(&c);
    if (rc < 0)
        return NULL;
    return Py_BuildValue("(ll)", delta[0], delta[1]);
}

/* A Memo handle: the Python object around a Memo that a caller passes to
 * many searches.  Only new_memo makes one. */
typedef struct {
    PyObject_HEAD
    Memo memo;
} MemoObject;

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

static PyMethodDef memo_methods[] = {
    {"counts", memo_counts, METH_NOARGS,
     "counts() -> (steps, hits, entries, clears): the rollout steps looked up, "
     "those found, the entries held and the times the memo was emptied"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject MemoType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_ckernel.Memo",
    .tp_basicsize = sizeof(MemoObject),
    .tp_dealloc = memo_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "A rollout memo that searches share; made by new_memo().",
    .tp_methods = memo_methods,
};

static PyObject *
py_new_memo(PyObject *self, PyObject *unused)
{
    MemoObject *m = PyObject_New(MemoObject, &MemoType);
    if (m != NULL)
        memset(&m->memo, 0, sizeof(Memo));
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
    long side, sim_depth, mm_depth;
    double explore, discount;
    PyObject *o_side, *o_mm_depth, *cap, *crown, *o_seed, *o_memo = Py_None;
    Call c = {0};
    Tree t = {0};
    Memo local = {0};
    uint64_t rng;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "y#OnlOpOOdddpO|O:search", names, &state,
                                     &len, &o_side, &iterations, &sim_depth, &o_mm_depth,
                                     &c.forced, &cap, &crown, &c.kw, &explore, &discount,
                                     &t.pruning, &o_seed, &o_memo)
            || bad_seed(o_seed, &rng) || bad_state(len)
            || bad_int(o_side, 0, 1, SIDE_MSG, &side)
            || bad_points(cap, crown, &c)
            || bad_int(o_mm_depth, LONG_MIN, MAX_DEPTH, DEPTH_MSG, &mm_depth))
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
    if (memo_start(c.memo, &c, mm_depth) < 0)
        return NULL;
    PyObject *out = NULL;
    t.nodes = PyMem_Calloc(1, sizeof(Node));
    if (t.nodes == NULL)
        return PyErr_NoMemory();
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
        if (depth >= t.npows && tree_pows(&t, depth, discount) < 0)
            goto done;
        /* the leaf is never the root, so it always has an entry move; the
         * playout does not grow the arena, so its state may point into it */
        long delta[2] = {0, 0};
        if (playout(&c, t.nodes[i].move.state, t.nodes[i].turn, sim_depth, mm_depth,
                    &rng, delta) < 0)
            goto done;
        delta[1 - t.nodes[i].turn] += t.nodes[i].move.reward;
        backup(&t, i, delta);
    }
    Py_ssize_t best = uct_child(&t, 0, 0.0);
    out = Py_BuildValue("(Nn)", box_move(&t.nodes[best].move), nodes);
done:
    PyMem_Free(t.nodes);
    PyMem_Free(t.pows);
    memo_free(&local);
    call_free(&c);
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
     "memo, from new_memo(), holds rollout steps across searches"},
    {"new_memo", py_new_memo, METH_NOARGS,
     "new_memo() -> an empty rollout memo for search's memo argument"},
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
    if (PyType_Ready(&MemoType) < 0)
        return NULL;
    init_tables();
    return PyModule_Create(&module);
}
