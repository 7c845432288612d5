#include "trees/rbtree.hpp"

#include <algorithm>
#include <stack>

namespace sftree::trees {

namespace {

inline bool isBlack(stm::Tx& tx, RBNode* n) {
  return n == nullptr || n->color.read(tx) == RBColor::Black;
}

}  // namespace

RBTree::RBTree(RBTreeConfig cfg)
    : cfg_(cfg),
      domain_(cfg.domain != nullptr ? *cfg.domain : stm::defaultDomain()) {}

RBTree::~RBTree() {
  // Free the reachable tree; the limbo list destructor frees unlinked
  // nodes. Callers guarantee no concurrent access during destruction.
  std::stack<RBNode*> stack;
  if (RBNode* r = root_.loadRelaxed()) stack.push(r);
  while (!stack.empty()) {
    RBNode* n = stack.top();
    stack.pop();
    if (RBNode* l = n->left.loadRelaxed()) stack.push(l);
    if (RBNode* r = n->right.loadRelaxed()) stack.push(r);
    deleteNode(n);
  }
}

RBNode* RBTree::searchTx(stm::Tx& tx, Key k) {
  RBNode* x = root_.read(tx);
  while (x != nullptr && x->key != k) {
    x = (k < x->key) ? x->left.read(tx) : x->right.read(tx);
  }
  return x;
}

void RBTree::leftRotate(stm::Tx& tx, RBNode* x) {
  RBNode* y = x->right.read(tx);
  RBNode* yl = y->left.read(tx);
  x->right.write(tx, yl);
  if (yl != nullptr) yl->parent.write(tx, x);
  RBNode* xp = x->parent.read(tx);
  y->parent.write(tx, xp);
  if (xp == nullptr) {
    root_.write(tx, y);
  } else if (xp->left.read(tx) == x) {
    xp->left.write(tx, y);
  } else {
    xp->right.write(tx, y);
  }
  y->left.write(tx, x);
  x->parent.write(tx, y);
}

void RBTree::rightRotate(stm::Tx& tx, RBNode* x) {
  RBNode* y = x->left.read(tx);
  RBNode* yr = y->right.read(tx);
  x->left.write(tx, yr);
  if (yr != nullptr) yr->parent.write(tx, x);
  RBNode* xp = x->parent.read(tx);
  y->parent.write(tx, xp);
  if (xp == nullptr) {
    root_.write(tx, y);
  } else if (xp->right.read(tx) == x) {
    xp->right.write(tx, y);
  } else {
    xp->left.write(tx, y);
  }
  y->right.write(tx, x);
  x->parent.write(tx, y);
}

void RBTree::insertFixup(stm::Tx& tx, RBNode* z) {
  for (;;) {
    RBNode* zp = z->parent.read(tx);
    if (zp == nullptr || zp->color.read(tx) == RBColor::Black) break;
    RBNode* zpp = zp->parent.read(tx);  // red parent => grandparent exists
    if (zp == zpp->left.read(tx)) {
      RBNode* uncle = zpp->right.read(tx);
      if (uncle != nullptr && uncle->color.read(tx) == RBColor::Red) {
        zp->color.write(tx, RBColor::Black);
        uncle->color.write(tx, RBColor::Black);
        zpp->color.write(tx, RBColor::Red);
        z = zpp;
        continue;
      }
      if (z == zp->right.read(tx)) {
        z = zp;
        leftRotate(tx, z);
        zp = z->parent.read(tx);
        zpp = zp->parent.read(tx);
      }
      zp->color.write(tx, RBColor::Black);
      zpp->color.write(tx, RBColor::Red);
      rightRotate(tx, zpp);
    } else {
      RBNode* uncle = zpp->left.read(tx);
      if (uncle != nullptr && uncle->color.read(tx) == RBColor::Red) {
        zp->color.write(tx, RBColor::Black);
        uncle->color.write(tx, RBColor::Black);
        zpp->color.write(tx, RBColor::Red);
        z = zpp;
        continue;
      }
      if (z == zp->left.read(tx)) {
        z = zp;
        rightRotate(tx, z);
        zp = z->parent.read(tx);
        zpp = zp->parent.read(tx);
      }
      zp->color.write(tx, RBColor::Black);
      zpp->color.write(tx, RBColor::Red);
      leftRotate(tx, zpp);
    }
  }
  RBNode* root = root_.read(tx);
  if (root->color.read(tx) != RBColor::Black) {
    root->color.write(tx, RBColor::Black);
  }
}

bool RBTree::insertTx(stm::Tx& tx, Key k, Value v) {
  stm::DomainScope dscope(tx, domain_);
  RBNode* y = nullptr;
  RBNode* x = root_.read(tx);
  while (x != nullptr) {
    if (x->key == k) return false;  // present: set semantics
    y = x;
    x = (k < x->key) ? x->left.read(tx) : x->right.read(tx);
  }
  RBNode* z = arena_.create(k, v);
  tx.onAbortDelete(z, &RBTree::deleteNode);
  z->parent.storeRelaxed(y);
  if (y == nullptr) {
    root_.write(tx, z);
  } else if (k < y->key) {
    y->left.write(tx, z);
  } else {
    y->right.write(tx, z);
  }
  insertFixup(tx, z);
  return true;
}

void RBTree::transplant(stm::Tx& tx, RBNode* u, RBNode* v) {
  RBNode* up = u->parent.read(tx);
  if (up == nullptr) {
    root_.write(tx, v);
  } else if (up->left.read(tx) == u) {
    up->left.write(tx, v);
  } else {
    up->right.write(tx, v);
  }
  if (v != nullptr) v->parent.write(tx, up);
}

void RBTree::eraseFixup(stm::Tx& tx, RBNode* x, RBNode* xParent) {
  while (x != root_.read(tx) && isBlack(tx, x)) {
    // x may be null, but then xParent identifies its (conceptual) position.
    if (x == xParent->left.read(tx)) {
      RBNode* w = xParent->right.read(tx);  // sibling: non-null (black height)
      if (w->color.read(tx) == RBColor::Red) {
        w->color.write(tx, RBColor::Black);
        xParent->color.write(tx, RBColor::Red);
        leftRotate(tx, xParent);
        w = xParent->right.read(tx);
      }
      RBNode* wl = w->left.read(tx);
      RBNode* wr = w->right.read(tx);
      if (isBlack(tx, wl) && isBlack(tx, wr)) {
        w->color.write(tx, RBColor::Red);
        x = xParent;
        xParent = x->parent.read(tx);
      } else {
        if (isBlack(tx, wr)) {
          if (wl != nullptr) wl->color.write(tx, RBColor::Black);
          w->color.write(tx, RBColor::Red);
          rightRotate(tx, w);
          w = xParent->right.read(tx);
          wr = w->right.read(tx);
        }
        w->color.write(tx, xParent->color.read(tx));
        xParent->color.write(tx, RBColor::Black);
        if (wr != nullptr) wr->color.write(tx, RBColor::Black);
        leftRotate(tx, xParent);
        x = root_.read(tx);
        break;
      }
    } else {
      RBNode* w = xParent->left.read(tx);
      if (w->color.read(tx) == RBColor::Red) {
        w->color.write(tx, RBColor::Black);
        xParent->color.write(tx, RBColor::Red);
        rightRotate(tx, xParent);
        w = xParent->left.read(tx);
      }
      RBNode* wr = w->right.read(tx);
      RBNode* wl = w->left.read(tx);
      if (isBlack(tx, wr) && isBlack(tx, wl)) {
        w->color.write(tx, RBColor::Red);
        x = xParent;
        xParent = x->parent.read(tx);
      } else {
        if (isBlack(tx, wl)) {
          if (wr != nullptr) wr->color.write(tx, RBColor::Black);
          w->color.write(tx, RBColor::Red);
          leftRotate(tx, w);
          w = xParent->left.read(tx);
          wl = w->left.read(tx);
        }
        w->color.write(tx, xParent->color.read(tx));
        xParent->color.write(tx, RBColor::Black);
        if (wl != nullptr) wl->color.write(tx, RBColor::Black);
        rightRotate(tx, xParent);
        x = root_.read(tx);
        break;
      }
    }
  }
  if (x != nullptr && x->color.read(tx) != RBColor::Black) {
    x->color.write(tx, RBColor::Black);
  }
}

bool RBTree::eraseTx(stm::Tx& tx, Key k) {
  stm::DomainScope dscope(tx, domain_);
  RBNode* z = searchTx(tx, k);
  if (z == nullptr) return false;

  RBNode* x = nullptr;
  RBNode* xParent = nullptr;
  RBColor removedColor = z->color.read(tx);
  RBNode* zl = z->left.read(tx);
  RBNode* zr = z->right.read(tx);

  if (zl == nullptr) {
    x = zr;
    xParent = z->parent.read(tx);
    transplant(tx, z, zr);
  } else if (zr == nullptr) {
    x = zl;
    xParent = z->parent.read(tx);
    transplant(tx, z, zl);
  } else {
    // Successor y = leftmost node of the right subtree replaces z.
    RBNode* y = zr;
    for (RBNode* yl = y->left.read(tx); yl != nullptr;
         yl = y->left.read(tx)) {
      y = yl;
    }
    removedColor = y->color.read(tx);
    x = y->right.read(tx);
    if (y->parent.read(tx) == z) {
      xParent = y;
    } else {
      xParent = y->parent.read(tx);
      transplant(tx, y, x);
      y->right.write(tx, zr);
      zr->parent.write(tx, y);
    }
    transplant(tx, z, y);
    zl = z->left.read(tx);  // unchanged, but re-read for clarity
    y->left.write(tx, zl);
    zl->parent.write(tx, y);
    y->color.write(tx, z->color.read(tx));
  }

  if (removedColor == RBColor::Black) {
    eraseFixup(tx, x, xParent);
  }
  // z is unlinked once this (outermost) transaction commits; defer the
  // retirement until then so an aborted enclosing transaction never retires
  // a node that is still reachable.
  tx.onCommit([this, z] { retireNode(z); });
  return true;
}

bool RBTree::insert(Key k, Value v) {
  auto& st = stm::threadStats(domain_);
  st.beginOp();
  const bool r =
      stm::atomically(domain_, [&](stm::Tx& tx) { return insertTx(tx, k, v); });
  st.endOp();
  return r;
}

bool RBTree::erase(Key k) {
  auto& st = stm::threadStats(domain_);
  st.beginOp();
  const bool r = stm::atomically(domain_, [&](stm::Tx& tx) { return eraseTx(tx, k); });
  st.endOp();
  return r;
}

bool RBTree::contains(Key k) {
  auto& st = stm::threadStats(domain_);
  st.beginOp();
  const bool r = stm::atomically(domain_, readTxKind(), [&](stm::Tx& tx) {
    return containsTx(tx, k);
  });
  st.endOp();
  return r;
}

bool RBTree::containsTx(stm::Tx& tx, Key k) {
  stm::DomainScope dscope(tx, domain_);
  return searchTx(tx, k) != nullptr;
}

std::optional<Value> RBTree::getTx(stm::Tx& tx, Key k) {
  stm::DomainScope dscope(tx, domain_);
  RBNode* n = searchTx(tx, k);
  if (n == nullptr) return std::nullopt;
  return n->value.read(tx);
}

std::optional<Value> RBTree::get(Key k) {
  auto& st = stm::threadStats(domain_);
  st.beginOp();
  const auto r = stm::atomically(domain_, readTxKind(),
                                 [&](stm::Tx& tx) { return getTx(tx, k); });
  st.endOp();
  return r;
}

bool RBTree::move(Key from, Key to) {
  auto& st = stm::threadStats(domain_);
  st.beginOp();
  const bool r = stm::atomically(domain_, [&](stm::Tx& tx) {
    if (containsTx(tx, to)) return false;
    const std::optional<Value> v = getTx(tx, from);
    if (!v) return false;
    eraseTx(tx, from);
    if (!insertTx(tx, to, *v)) tx.restart();  // never lose the erased key
    return true;
  });
  st.endOp();
  return r;
}

namespace {
std::size_t rbCountRange(stm::Tx& tx, RBNode* n, Key lo, Key hi) {
  if (n == nullptr) return 0;
  std::size_t count = 0;
  if (lo < n->key) count += rbCountRange(tx, n->left.read(tx), lo, hi);
  if (lo <= n->key && n->key <= hi) ++count;
  if (hi > n->key) count += rbCountRange(tx, n->right.read(tx), lo, hi);
  return count;
}
}  // namespace

std::size_t RBTree::countRangeTx(stm::Tx& tx, Key lo, Key hi) {
  stm::DomainScope dscope(tx, domain_);
  return rbCountRange(tx, root_.read(tx), lo, hi);
}

std::size_t RBTree::countRange(Key lo, Key hi) {
  auto& st = stm::threadStats(domain_);
  st.beginOp();
  // ReadOnly unconditionally — never elastic (countRange promises a
  // consistent snapshot; see SFTree::countRange).
  const auto r = stm::atomically(
      domain_, stm::TxKind::ReadOnly,
      [&](stm::Tx& tx) { return countRangeTx(tx, lo, hi); });
  st.endOp();
  return r;
}

void RBTree::retireNode(RBNode* n) {
  std::lock_guard<std::mutex> lk(limboMu_);
  limbo_.retire(n, &RBTree::deleteNode);
  // Amortized collection: close out the previous epoch if it quiesced and
  // open a new one.
  if (++retireTick_ % 64 == 0) {
    limbo_.tryCollect();
    limbo_.openEpoch();
  }
}

std::size_t RBTree::size() {
  std::size_t n = 0;
  std::stack<RBNode*> stack;
  if (RBNode* r = root_.loadRelaxed()) stack.push(r);
  while (!stack.empty()) {
    RBNode* x = stack.top();
    stack.pop();
    ++n;
    if (RBNode* l = x->left.loadRelaxed()) stack.push(l);
    if (RBNode* r = x->right.loadRelaxed()) stack.push(r);
  }
  return n;
}

namespace {
int rbHeight(RBNode* n) {
  if (n == nullptr) return 0;
  return 1 + std::max(rbHeight(n->left.loadRelaxed()),
                      rbHeight(n->right.loadRelaxed()));
}
void rbInorder(RBNode* n, std::vector<Key>& out) {
  if (n == nullptr) return;
  rbInorder(n->left.loadRelaxed(), out);
  out.push_back(n->key);
  rbInorder(n->right.loadRelaxed(), out);
}
}  // namespace

int RBTree::height() { return rbHeight(root_.loadRelaxed()); }

std::vector<Key> RBTree::keysInOrder() {
  std::vector<Key> out;
  rbInorder(root_.loadRelaxed(), out);
  return out;
}

}  // namespace sftree::trees
