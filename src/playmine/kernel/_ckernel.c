/* Compiled twin of _pykernel: move generation, alpha-beta minimax,
 * rollouts and the whole MCTS turn (search).
 *
 * Same 64-byte board encoding, same scan and enumeration order, same
 * first-in-order tie-breaking and the same Python return values as
 * _pykernel.py; the parity tests hold the two to identical outputs.  search
 * also keeps _pykernel's float operations in their order (see its module
 * docstring): UCT score reward / visits + c * sqrt(log_n / visits), backup
 * reward += pow(discount, dist) * delta, final pick by highest mean, each
 * compared with strict >, so both twins choose bit-identical moves.
 * playmine/kernel/__init__.py compiles this file on first import.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

#define WHITE 0
#define RED 1
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

static const int DXS[4] = {1, 1, -1, -1};
static const int DYS[4] = {1, -1, 1, -1};

typedef struct {
    unsigned char frm, to, ncap, crowned;
    long reward;
    unsigned char caps[MAXCAPS];
    unsigned char state[64];
} Move;

/* One kernel call: its rules, and the stack that every move it generates
 * is pushed on, so there is no fixed move limit.  A minimax level pushes its
 * moves on top and pops them before returning; entries are addressed by
 * index because growing the stack may move it, and no state argument ever
 * points into it. */
typedef struct {
    int forced;
    long cap_pts, crown_pts;
    double kw;
    Move *moves;
    Py_ssize_t n, cap;
    int failed; /* a Python exception is set */
} Call;

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
emit_chain(Call *c, const Chain *ch, int land, int ncap, int crowned)
{
    Move *m = push(c);
    if (m == NULL)
        return -1;
    m->frm = (unsigned char)ch->from;
    m->to = (unsigned char)land;
    m->ncap = (unsigned char)ncap;
    m->crowned = (unsigned char)crowned;
    m->reward = c->cap_pts * ncap + (crowned ? c->crown_pts : 0);
    memcpy(m->caps, ch->caps, (size_t)ncap);
    memcpy(m->state, ch->work, 64);
    m->state[land] = crowned ? (ch->piece | KING_FLAG) : ch->piece;
    return 0;
}

/* DFS over jump continuations from (cx, cy); emits every chain that cannot
 * be extended.  Returns 1 if a jump was found, 0 if none, -1 on error. */
static int
extend_chains(Call *c, Chain *ch, int cx, int cy, int ncap)
{
    int jumped = 0;
    for (int d = ch->d0; d < ch->d1; d++) {
        int lx = cx + 2 * DXS[d], ly = cy + 2 * DYS[d];
        if (lx < 0 || lx > 7 || ly < 0 || ly > 7)
            continue;
        int mid = ((cx + DXS[d]) << 3) | (cy + DYS[d]);
        unsigned char mv = ch->work[mid];
        if (mv == 0 || ((mv >> 6) & 1) == ch->color)
            continue;
        int land = (lx << 3) | ly;
        if (ch->work[land] != 0)
            continue;
        jumped = 1;
        ch->work[mid] = 0;
        ch->caps[ncap] = mv & ID_MASK;
        int rc;
        if (!ch->king && lx == ch->far_x) {
            /* crowning ends a man's chain */
            rc = emit_chain(c, ch, land, ncap + 1, 1);
        }
        else {
            rc = extend_chains(c, ch, lx, ly, ncap + 1);
            if (rc == 0)
                rc = emit_chain(c, ch, land, ncap + 1, 0);
        }
        if (rc < 0)
            return -1;
        ch->work[mid] = mv;
    }
    return jumped;
}

/* Pushes every legal move of `color`: per piece in ascending board index
 * its capture chains, then its quiet steps; with forced capture and any
 * capture available only the captures are kept.  Returns the number of
 * moves pushed, or -1 on error. */
static Py_ssize_t
gen(Call *c, const unsigned char *state, int color)
{
    Py_ssize_t base = c->n;
    int have_capture = 0;
    Chain ch;
    ch.color = color;
    ch.far_x = color == WHITE ? 7 : 0;
    for (int idx = 0; idx < 64; idx++) {
        unsigned char piece = state[idx];
        if (piece == 0 || ((piece >> 6) & 1) != color)
            continue;
        int x = idx >> 3, y = idx & 7;
        ch.from = idx;
        ch.piece = piece;
        ch.king = (piece & KING_FLAG) != 0;
        /* white men step toward x = 7 (dirs 0-1), red men toward x = 0 */
        ch.d0 = (ch.king || color == WHITE) ? 0 : 2;
        ch.d1 = (ch.king || color != WHITE) ? 4 : 2;

        memcpy(ch.work, state, 64);
        ch.work[idx] = 0;
        Py_ssize_t before = c->n;
        if (extend_chains(c, &ch, x, y, 0) < 0)
            return -1;
        if (c->n > before)
            have_capture = 1;

        for (int d = ch.d0; d < ch.d1; d++) {
            int nx = x + DXS[d], ny = y + DYS[d];
            if (nx < 0 || nx > 7 || ny < 0 || ny > 7)
                continue;
            int nidx = (nx << 3) | ny;
            if (state[nidx] != 0)
                continue;
            int crowned = !ch.king && nx == ch.far_x;
            Move *m = push(c);
            if (m == NULL)
                return -1;
            m->frm = (unsigned char)idx;
            m->to = (unsigned char)nidx;
            m->ncap = 0;
            m->crowned = (unsigned char)crowned;
            m->reward = crowned ? c->crown_pts : 0;
            memcpy(m->state, state, 64);
            m->state[idx] = 0;
            m->state[nidx] = crowned ? (piece | KING_FLAG) : piece;
        }
    }
    if (c->forced && have_capture) {
        Py_ssize_t j = base;
        for (Py_ssize_t i = base; i < c->n; i++) {
            if (c->moves[i].ncap > 0) {
                if (i != j)
                    c->moves[j] = c->moves[i];
                j++;
            }
        }
        c->n = j;
    }
    return c->n - base;
}

/* 1 iff gen would find a move for `color`: every legal move starts with a
 * step to an empty neighbour or a jump over an opponent onto an empty
 * square, so this stops at the first piece that can make one, without
 * building a move.  A side with no pieces has no move. */
static int
side_has_moves(const unsigned char *state, long color)
{
    for (int idx = 0; idx < 64; idx++) {
        unsigned char piece = state[idx];
        if (piece == 0 || ((piece >> 6) & 1) != color)
            continue;
        int x = idx >> 3, y = idx & 7, king = (piece & KING_FLAG) != 0;
        int d0 = (king || color == WHITE) ? 0 : 2;
        int d1 = (king || color != WHITE) ? 4 : 2;
        for (int d = d0; d < d1; d++) {
            int nx = x + DXS[d], ny = y + DYS[d];
            if (nx < 0 || nx > 7 || ny < 0 || ny > 7)
                continue;
            unsigned char nv = state[(nx << 3) | ny];
            if (nv == 0)
                return 1;
            if (((nv >> 6) & 1) != color) {
                int lx = x + 2 * DXS[d], ly = y + 2 * DYS[d];
                if (lx >= 0 && lx <= 7 && ly >= 0 && ly <= 7
                        && state[(lx << 3) | ly] == 0)
                    return 1;
            }
        }
    }
    return 0;
}

/* counts: white men, white kings, red men, red kings */
static void
piece_counts(const unsigned char *state, long counts[4])
{
    counts[0] = counts[1] = counts[2] = counts[3] = 0;
    for (int idx = 0; idx < 64; idx++) {
        unsigned char v = state[idx];
        if (v != 0)
            counts[((v & RED_FLAG) ? 2 : 0) + ((v & KING_FLAG) ? 1 : 0)]++;
    }
}

static double
evaluate(const unsigned char *state, long color, double king_weight)
{
    long c[4];
    piece_counts(state, c);
    double white = (double)(c[0] + c[1] - c[2] - c[3]) + king_weight * (double)(c[1] - c[3]);
    return color == WHITE ? white : -white;
}

/* -1 while undecided, else the winning color: the side to move loses when
 * it has no legal move, which includes having no pieces; that is the
 * terminal test of minimax and rollout. */
static long
winner(const unsigned char *state, long to_move)
{
    return side_has_moves(state, to_move) ? -1 : 1 - to_move;
}

/* Depth-limited fail-soft alpha-beta (Knuth & Moore, 1975), scored from
 * the agent's side; the root is searched on the open window (-inf, +inf).
 * A move replaces the best one only on a strict improvement, so a root
 * child that only ties the best fails low: the chosen move is the first
 * co-optimal one in gen order and the root score is exact.  A node whose
 * side has no legal move is terminal and scored by evaluate, like a depth-0
 * leaf; that is the same test as winner() != -1.  When `best` is given the
 * chosen move is copied there and *found says whether there was one. */
static double
minimax(Call *c, const unsigned char *state, long to_move, long agent,
        long depth, double alpha, double beta, Move *best, int *found)
{
    if (found != NULL)
        *found = 0;
    if (depth == 0)
        return evaluate(state, agent, c->kw);
    Py_ssize_t base = c->n, n = gen(c, state, (int)to_move);
    if (n < 0)
        return 0.0;
    if (n == 0)
        return evaluate(state, agent, c->kw);
    int maximizing = to_move == agent;
    double best_score = maximizing ? -INFINITY : INFINITY;
    Py_ssize_t best_i = -1;
    unsigned char child[64];
    for (Py_ssize_t i = 0; i < n; i++) {
        memcpy(child, c->moves[base + i].state, 64);
        double score = minimax(c, child, 1 - to_move, agent, depth - 1, alpha, beta,
                               NULL, NULL);
        if (c->failed)
            break;
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

/* Minimax-guided playout: each step the side to move plays its own
 * depth-mm_depth minimax move, until sim_depth steps or a side with no
 * legal move.  Adds the rewards to delta[white], delta[red]; 0, or -1 on
 * error. */
static int
rollout(Call *c, const unsigned char *state, long to_move, long sim_depth,
        long mm_depth, long delta[2])
{
    unsigned char cur[64];
    long turn = to_move;
    memcpy(cur, state, 64);
    for (long steps = 0; steps < sim_depth; steps++) {
        Move best;
        int found;
        minimax(c, cur, turn, turn, mm_depth, -INFINITY, INFINITY, &best, &found);
        if (c->failed)
            return -1;
        if (!found)
            break;
        delta[turn == WHITE ? 0 : 1] += best.reward;
        memcpy(cur, best.state, 64);
        turn = 1 - turn;
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
 * slots.  Nodes are addressed by index, since growing may move it. */
typedef struct {
    Node *nodes;
    Py_ssize_t n, cap;
    int pruning;
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
 * children are all visited. */
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
 * ancestor, dist steps above i. */
static void
backup(Tree *t, Py_ssize_t i, const long delta[2], double discount)
{
    for (long dist = 0; i >= 0; dist++) {
        Node *nd = &t->nodes[i];
        double factor = pow(discount, (double)dist);
        nd->visits++;
        nd->reward[0] += factor * (double)delta[0];
        nd->reward[1] += factor * (double)delta[1];
        i = nd->parent;
    }
}

/* The search's rollout: rollout at mm_depth >= 1, else up to sim_depth
 * random moves, each the randrange(len(moves))-th; 0, or -1 with an
 * exception set. */
static int
playout(Call *c, const unsigned char *state, long turn, long sim_depth,
        long mm_depth, PyObject *randrange, long delta[2])
{
    if (mm_depth >= 1)
        return rollout(c, state, turn, sim_depth, mm_depth, delta);
    unsigned char cur[64];
    memcpy(cur, state, 64);
    for (long steps = 0; steps < sim_depth; steps++) {
        Py_ssize_t base = c->n, n = gen(c, cur, (int)turn);
        if (n < 0)
            return -1;
        if (n == 0)
            break;
        PyObject *r = PyObject_CallFunction(randrange, "n", n);
        Py_ssize_t k = r == NULL ? -1 : PyNumber_AsSsize_t(r, NULL);
        Py_XDECREF(r);
        if (k == -1 && PyErr_Occurred()) {
            c->n = base;
            return -1;
        }
        if (k < 0 || k >= n) {
            c->n = base;
            PyErr_SetString(PyExc_ValueError, "randrange result out of range");
            return -1;
        }
        const Move *m = &c->moves[base + k];
        delta[turn == WHITE ? 0 : 1] += m->reward;
        memcpy(cur, m->state, 64);
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

/* Every function takes positional arguments; a state is a bytes-like
 * object of 64 bytes. */
static int
bad_state(Py_ssize_t len)
{
    if (len == 64)
        return 0;
    PyErr_SetString(PyExc_ValueError, "state must be 64 bytes");
    return 1;
}

#define BOARD(s) ((const unsigned char *)(s))

static PyObject *
py_gen_moves(PyObject *self, PyObject *args)
{
    const char *state;
    Py_ssize_t len;
    long color;
    Call c = {0};
    if (!PyArg_ParseTuple(args, "y#lpll:gen_moves", &state, &len, &color, &c.forced,
                          &c.cap_pts, &c.crown_pts) || bad_state(len))
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
    PyMem_Free(c.moves);
    return out;
}

static PyObject *
py_side_has_moves(PyObject *self, PyObject *args)
{
    const char *state;
    Py_ssize_t len;
    long color;
    if (!PyArg_ParseTuple(args, "y#l:side_has_moves", &state, &len, &color) || bad_state(len))
        return NULL;
    return PyBool_FromLong(side_has_moves(BOARD(state), color));
}

static PyObject *
py_piece_counts(PyObject *self, PyObject *args)
{
    const char *state;
    Py_ssize_t len;
    long c[4];
    if (!PyArg_ParseTuple(args, "y#:piece_counts", &state, &len) || bad_state(len))
        return NULL;
    piece_counts(BOARD(state), c);
    return Py_BuildValue("(llll)", c[0], c[1], c[2], c[3]);
}

static PyObject *
py_evaluate(PyObject *self, PyObject *args)
{
    const char *state;
    Py_ssize_t len;
    long color;
    double kw;
    if (!PyArg_ParseTuple(args, "y#ld:evaluate", &state, &len, &color, &kw) || bad_state(len))
        return NULL;
    return PyFloat_FromDouble(evaluate(BOARD(state), color, kw));
}

static PyObject *
py_winner(PyObject *self, PyObject *args)
{
    const char *state;
    Py_ssize_t len;
    long to_move;
    if (!PyArg_ParseTuple(args, "y#l:winner", &state, &len, &to_move) || bad_state(len))
        return NULL;
    return PyLong_FromLong(winner(BOARD(state), to_move));
}

static PyObject *
py_minimax(PyObject *self, PyObject *args)
{
    const char *state;
    Py_ssize_t len;
    long to_move, agent, depth;
    Call c = {0};
    if (!PyArg_ParseTuple(args, "y#lllplld:minimax", &state, &len, &to_move, &agent, &depth,
                          &c.forced, &c.cap_pts, &c.crown_pts, &c.kw) || bad_state(len))
        return NULL;
    Move best;
    int found;
    double score = minimax(&c, BOARD(state), to_move, agent, depth, -INFINITY, INFINITY,
                           &best, &found);
    PyMem_Free(c.moves);
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
    Call c = {0};
    if (!PyArg_ParseTuple(args, "y#lllplld:rollout", &state, &len, &to_move, &sim_depth,
                          &mm_depth, &c.forced, &c.cap_pts, &c.crown_pts, &c.kw)
            || bad_state(len))
        return NULL;
    if (mm_depth < 1) {
        PyErr_SetString(PyExc_ValueError, "rollout requires mm_depth >= 1");
        return NULL;
    }
    long delta[2] = {0, 0};
    int rc = rollout(&c, BOARD(state), to_move, sim_depth, mm_depth, delta);
    PyMem_Free(c.moves);
    if (rc < 0)
        return NULL;
    return Py_BuildValue("(ll)", delta[0], delta[1]);
}

static PyObject *
py_search(PyObject *self, PyObject *args)
{
    const char *state;
    Py_ssize_t len, iterations;
    long side, sim_depth, mm_depth;
    double explore, discount;
    PyObject *randrange;
    Call c = {0};
    Tree t = {0};
    if (!PyArg_ParseTuple(args, "y#lnllplldddpO:search", &state, &len, &side, &iterations,
                          &sim_depth, &mm_depth, &c.forced, &c.cap_pts, &c.crown_pts,
                          &c.kw, &explore, &discount, &t.pruning, &randrange)
            || bad_state(len))
        return NULL;
    if (iterations < 1) {
        PyErr_SetString(PyExc_ValueError, "iterations must be >= 1");
        return NULL;
    }
    /* a NaN or infinite score would leave UCT without a child */
    if (!(explore >= 0 && explore < INFINITY)) {
        PyErr_SetString(PyExc_ValueError, "exploration must be finite and >= 0");
        return NULL;
    }
    if (!(discount > 0 && discount <= 1)) {
        PyErr_SetString(PyExc_ValueError, "discount must be in (0, 1]");
        return NULL;
    }
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
        Py_ssize_t i = 0;
        while (t.nodes[i].nkids > 0 && t.nodes[i].nkids == t.nodes[i].nact)
            i = uct_child(&t, i, explore);
        Py_ssize_t n = tree_actions(&t, &c, i);
        if (n < 0)
            goto done;
        if (n > 0) {
            i = t.nodes[i].first + t.nodes[i].nkids++;
            nodes++;
        }
        /* the leaf is never the root, so it always has an entry move; the
         * playout does not grow the arena, so its state may point into it */
        long delta[2] = {0, 0};
        if (playout(&c, t.nodes[i].move.state, t.nodes[i].turn, sim_depth, mm_depth,
                    randrange, delta) < 0)
            goto done;
        delta[1 - t.nodes[i].turn] += t.nodes[i].move.reward;
        backup(&t, i, delta, discount);
    }
    Py_ssize_t best = -1;
    double best_mean = -INFINITY;
    for (Py_ssize_t k = t.nodes[0].first; k < t.nodes[0].first + t.nodes[0].nkids; k++) {
        double mean = t.nodes[k].reward[t.nodes[0].turn] / (double)t.nodes[k].visits;
        if (mean > best_mean) {
            best_mean = mean;
            best = k;
        }
    }
    out = Py_BuildValue("(Nn)", box_move(&t.nodes[best].move), nodes);
done:
    PyMem_Free(t.nodes);
    PyMem_Free(c.moves);
    return out;
}

static PyMethodDef methods[] = {
    {"gen_moves", py_gen_moves, METH_VARARGS,
     "gen_moves(state, color, forced, capture_points, crown_points) -> list of "
     "(from_idx, to_idx, captured_ids, crowned, reward, new_state)"},
    {"side_has_moves", py_side_has_moves, METH_VARARGS,
     "side_has_moves(state, color) -> bool"},
    {"piece_counts", py_piece_counts, METH_VARARGS,
     "piece_counts(state) -> (white_men, white_kings, red_men, red_kings)"},
    {"evaluate", py_evaluate, METH_VARARGS,
     "evaluate(state, color, king_weight) -> float"},
    {"winner", py_winner, METH_VARARGS,
     "winner(state, to_move) -> -1 while undecided, else the winning color"},
    {"minimax", py_minimax, METH_VARARGS,
     "minimax(state, to_move, agent, depth, forced, capture_points, crown_points, "
     "king_weight) -> (score, move or None)"},
    {"rollout", py_rollout, METH_VARARGS,
     "rollout(state, to_move, sim_depth, mm_depth, forced, capture_points, "
     "crown_points, king_weight) -> (white_reward, red_reward)"},
    {"search", py_search, METH_VARARGS,
     "search(state, side, iterations, sim_depth, mm_depth, forced, capture_points, "
     "crown_points, king_weight, exploration, discount, pruning, randrange) -> "
     "(move, nodes) or None when side has no legal move"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_ckernel",
    "Compiled twin of _pykernel.",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddIntConstant(m, "WHITE", WHITE) < 0
            || PyModule_AddIntConstant(m, "RED", RED) < 0
            || PyModule_AddIntConstant(m, "KING_FLAG", KING_FLAG) < 0
            || PyModule_AddIntConstant(m, "RED_FLAG", RED_FLAG) < 0
            || PyModule_AddIntConstant(m, "ID_MASK", ID_MASK) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
