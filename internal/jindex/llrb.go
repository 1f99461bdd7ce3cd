package jindex

// llrb is a left-leaning red-black tree over composite KVs ordered by
// offset. It is the index's first level: insert-optimized, at the price of
// two child pointers and a color bit per entry — the storage overhead the
// paper's second-level sorted array exists to avoid.
//
// The tree never holds intersecting keys; callers erase intersections
// before inserting, so ordering by Off() is total.
type llrb struct {
	root *llrbNode
	n    int

	// free is the tree's own stock of recycled nodes, linked through left,
	// at most maxFreeNodes of them: every journaled write inserts (and erased
	// intersections delete) nodes, and each merge discards a whole tree —
	// the dominant steady-state allocation of the index before recycling.
	// The tree keeps them itself rather than in a sync.Pool because its size
	// breathes with the replayer — a drain hands every node back — and a
	// collection between two bursts would empty a shared pool each time.
	// Recycling is safe because the index's owner serializes every call, so
	// no query holds a node once it is freed.
	free  *llrbNode
	nfree int
}

// maxFreeNodes bounds a tree's free list: one full tree at the default merge
// threshold, about 200 KB.
const maxFreeNodes = 4096

type llrbNode struct {
	kv          KV
	left, right *llrbNode
	red         bool
}

func (t *llrb) newNode(kv KV) *llrbNode {
	n := t.free
	if n == nil {
		n = new(llrbNode)
	} else {
		t.free, t.nfree = n.left, t.nfree-1
	}
	n.kv = kv
	n.left, n.right = nil, nil
	n.red = true
	return n
}

func (t *llrb) freeNode(n *llrbNode) {
	if t.nfree >= maxFreeNodes {
		return
	}
	n.left, n.right = t.free, nil
	t.free, t.nfree = n, t.nfree+1
}

// releaseNodes empties the tree, recycling its nodes (a merge, after the
// keys have been folded into the array).
func (t *llrb) releaseNodes() {
	t.releaseSubtree(t.root)
	t.root, t.n = nil, 0
}

func (t *llrb) releaseSubtree(h *llrbNode) {
	if h == nil {
		return
	}
	left, right := h.left, h.right
	t.freeNode(h)
	t.releaseSubtree(left)
	t.releaseSubtree(right)
}

// llrbIter walks a tree in offset order starting from the first key whose
// End() > off, without allocating: the explicit stack keeps recursion and
// closures off the query hot path. Because keys never intersect, End order
// equals Off order and the qualifying keys form a suffix of the in-order
// sequence. The stack bound follows from the red-black height bound
// 2·log2(n+1) with n ≤ MaxOff (2^17) entries.
type llrbIter struct {
	off   uint32
	top   int
	stack [48]*llrbNode
}

func (it *llrbIter) init(root *llrbNode, off uint32) {
	it.off = off
	it.top = 0
	it.descend(root)
}

// descend pushes h's leftmost qualifying path: a node (and its whole left
// subtree) ending at or before off cannot qualify, so descent continues
// right.
func (it *llrbIter) descend(h *llrbNode) {
	for h != nil {
		if h.kv.End() <= it.off {
			h = h.right
			continue
		}
		it.stack[it.top] = h
		it.top++
		h = h.left
	}
}

func (it *llrbIter) next() (KV, bool) {
	if it.top == 0 {
		return 0, false
	}
	it.top--
	h := it.stack[it.top]
	it.descend(h.right)
	return h.kv, true
}

func isRed(n *llrbNode) bool { return n != nil && n.red }

func rotateLeft(h *llrbNode) *llrbNode {
	x := h.right
	h.right = x.left
	x.left = h
	x.red = h.red
	h.red = true
	return x
}

func rotateRight(h *llrbNode) *llrbNode {
	x := h.left
	h.left = x.right
	x.right = h
	x.red = h.red
	h.red = true
	return x
}

func flipColors(h *llrbNode) {
	h.red = !h.red
	h.left.red = !h.left.red
	h.right.red = !h.right.red
}

func fixUp(h *llrbNode) *llrbNode {
	if isRed(h.right) && !isRed(h.left) {
		h = rotateLeft(h)
	}
	if isRed(h.left) && isRed(h.left.left) {
		h = rotateRight(h)
	}
	if isRed(h.left) && isRed(h.right) {
		flipColors(h)
	}
	return h
}

// insert adds kv; if a key with the same offset exists it is replaced.
func (t *llrb) insert(kv KV) {
	var added bool
	t.root, added = t.insertNode(t.root, kv)
	t.root.red = false
	if added {
		t.n++
	}
}

func (t *llrb) insertNode(h *llrbNode, kv KV) (*llrbNode, bool) {
	if h == nil {
		return t.newNode(kv), true
	}
	var added bool
	switch {
	case kv.Off() < h.kv.Off():
		h.left, added = t.insertNode(h.left, kv)
	case kv.Off() > h.kv.Off():
		h.right, added = t.insertNode(h.right, kv)
	default:
		h.kv = kv
	}
	return fixUp(h), added
}

// delete removes the key with exactly offset off, if present.
func (t *llrb) delete(off uint32) {
	if t.root == nil || !t.contains(off) {
		return
	}
	t.root = t.deleteNode(t.root, off)
	if t.root != nil {
		t.root.red = false
	}
	t.n--
}

func (t *llrb) contains(off uint32) bool {
	n := t.root
	for n != nil {
		switch {
		case off < n.kv.Off():
			n = n.left
		case off > n.kv.Off():
			n = n.right
		default:
			return true
		}
	}
	return false
}

func moveRedLeft(h *llrbNode) *llrbNode {
	flipColors(h)
	if isRed(h.right.left) {
		h.right = rotateRight(h.right)
		h = rotateLeft(h)
		flipColors(h)
	}
	return h
}

func moveRedRight(h *llrbNode) *llrbNode {
	flipColors(h)
	if isRed(h.left.left) {
		h = rotateRight(h)
		flipColors(h)
	}
	return h
}

func minNode(h *llrbNode) *llrbNode {
	for h.left != nil {
		h = h.left
	}
	return h
}

func (t *llrb) deleteMin(h *llrbNode) *llrbNode {
	if h.left == nil {
		// In an LLRB a node without a left child is a leaf (a lone right
		// child would break the left-leaning invariant), so h is dropped
		// whole and can be recycled.
		t.freeNode(h)
		return nil
	}
	if !isRed(h.left) && !isRed(h.left.left) {
		h = moveRedLeft(h)
	}
	h.left = t.deleteMin(h.left)
	return fixUp(h)
}

func (t *llrb) deleteNode(h *llrbNode, off uint32) *llrbNode {
	if off < h.kv.Off() {
		if !isRed(h.left) && !isRed(h.left.left) {
			h = moveRedLeft(h)
		}
		h.left = t.deleteNode(h.left, off)
	} else {
		if isRed(h.left) {
			h = rotateRight(h)
		}
		if off == h.kv.Off() && h.right == nil {
			t.freeNode(h)
			return nil
		}
		if !isRed(h.right) && !isRed(h.right.left) {
			h = moveRedRight(h)
		}
		if off == h.kv.Off() {
			m := minNode(h.right)
			h.kv = m.kv
			h.right = t.deleteMin(h.right)
		} else {
			h.right = t.deleteNode(h.right, off)
		}
	}
	return fixUp(h)
}

// len returns the number of keys.
func (t *llrb) len() int { return t.n }

// checkInvariants validates red-black properties; tests call it.
func (t *llrb) checkInvariants() error {
	if isRed(t.root) {
		return errRootRed
	}
	_, err := checkNode(t.root)
	return err
}

var (
	errRootRed   = errString("llrb: red root")
	errRedRight  = errString("llrb: right-leaning red link")
	errRedRed    = errString("llrb: consecutive red links")
	errBlackHt   = errString("llrb: unequal black height")
	errUnordered = errString("llrb: keys out of order")
)

type errString string

func (e errString) Error() string { return string(e) }

func checkNode(h *llrbNode) (blackHeight int, err error) {
	if h == nil {
		return 1, nil
	}
	if isRed(h.right) {
		return 0, errRedRight
	}
	if isRed(h) && isRed(h.left) {
		return 0, errRedRed
	}
	if h.left != nil && h.left.kv.Off() >= h.kv.Off() {
		return 0, errUnordered
	}
	if h.right != nil && h.right.kv.Off() <= h.kv.Off() {
		return 0, errUnordered
	}
	lh, err := checkNode(h.left)
	if err != nil {
		return 0, err
	}
	rh, err := checkNode(h.right)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, errBlackHt
	}
	if !isRed(h) {
		lh++
	}
	return lh, nil
}
