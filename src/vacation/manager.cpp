#include "vacation/manager.hpp"

#include <sstream>
#include <thread>
#include <unordered_map>

namespace sftree::vacation {

const char* reservationTypeName(ReservationType t) {
  switch (t) {
    case ReservationType::Car: return "car";
    case ReservationType::Flight: return "flight";
    case ReservationType::Room: return "room";
  }
  return "?";
}

namespace {

inline sftree::Value encodePtr(void* p) {
  return static_cast<sftree::Value>(reinterpret_cast<std::uintptr_t>(p));
}

template <typename T>
inline T* decodePtr(sftree::Value v) {
  return reinterpret_cast<T*>(static_cast<std::uintptr_t>(v));
}

void deleteReservationObj(void* p) { delete static_cast<Reservation*>(p); }
void deleteCustomerObj(void* p) { delete static_cast<Customer*>(p); }

}  // namespace

Manager::Manager(trees::MapKind tableKind, stm::TxKind txKind) {
  // The four tables (cars/flights/rooms/customers) share one maintenance
  // worker pool: K workers (K < 4) multiplex the restructuring passes
  // instead of four dedicated rotator threads starving the clients on
  // small machines. The scheduler's
  // per-tree backoff replaces the old duty-cycle throttle: cold tables
  // cost nothing, hot tables get the passes.
  trees::MapOptions options;
  if (tableKind == trees::MapKind::SFTree ||
      tableKind == trees::MapKind::OptSFTree) {
    shard::MaintenanceSchedulerConfig schedCfg;
    schedCfg.workers = std::thread::hardware_concurrency() >= 8 ? 2 : 1;
    maintScheduler_ =
        std::make_unique<shard::MaintenanceScheduler>(schedCfg);
    options.scheduler = maintScheduler_.get();
  }
  for (int t = 0; t < kNumReservationTypes; ++t) {
    options.name =
        std::string("vacation/") +
        reservationTypeName(static_cast<ReservationType>(t)) + "s";
    tables_[t] = trees::makeMap(tableKind, txKind, options);
  }
  options.name = "vacation/customers";
  customers_ = trees::makeMap(tableKind, txKind, options);
}

Manager::~Manager() {
  // Free the row objects still owned by the tables (the trees only free
  // their nodes; the pointed-to rows are ours).
  for (auto& tbl : tables_) {
    for (const Key id : tbl->keysInOrder()) {
      const auto v = tbl->get(id);
      if (v) delete decodePtr<Reservation>(*v);
    }
  }
  for (const Key id : customers_->keysInOrder()) {
    const auto v = customers_->get(id);
    if (v) delete decodePtr<Customer>(*v);
  }
  // Unlinked rows are freed by the limbo list destructor.
}

Reservation* Manager::findReservation(stm::Tx& tx, ReservationType type,
                                      Key id) {
  const auto v = table(type).getTx(tx, id);
  return v ? decodePtr<Reservation>(*v) : nullptr;
}

Customer* Manager::findCustomer(stm::Tx& tx, Key customerId) {
  const auto v = customers_->getTx(tx, customerId);
  return v ? decodePtr<Customer>(*v) : nullptr;
}

bool Manager::addReservation(stm::Tx& tx, ReservationType type, Key id,
                             std::int64_t num, Money price) {
  Reservation* r = findReservation(tx, type, id);
  if (r == nullptr) {
    if (num < 1 || price < 0) return false;
    auto* fresh = new Reservation(id, num, price);
    tx.onAbortDelete(fresh, &deleteReservationObj);
    table(type).insertTx(tx, id, encodePtr(fresh));
    return true;
  }
  if (!r->addToTotal(tx, num)) return false;
  if (price >= 0) r->updatePrice(tx, price);
  return true;
}

bool Manager::deleteReservationCapacity(stm::Tx& tx, ReservationType type,
                                        Key id, std::int64_t num) {
  Reservation* r = findReservation(tx, type, id);
  if (r == nullptr) return false;
  return r->addToTotal(tx, -num);
}

bool Manager::deleteFlight(stm::Tx& tx, Key id) {
  Reservation* r = findReservation(tx, ReservationType::Flight, id);
  if (r == nullptr) return false;
  if (r->numUsed(tx) > 0) return false;  // seats in use: cannot drop
  table(ReservationType::Flight).eraseTx(tx, id);
  tx.onCommit([this, r] { retireReservation(r); });
  return true;
}

bool Manager::addCustomer(stm::Tx& tx, Key customerId) {
  if (customers_->containsTx(tx, customerId)) return false;
  auto* fresh = new Customer(customerId);
  tx.onAbortDelete(fresh, &deleteCustomerObj);
  customers_->insertTx(tx, customerId, encodePtr(fresh));
  return true;
}

bool Manager::deleteCustomer(stm::Tx& tx, Key customerId) {
  Customer* c = findCustomer(tx, customerId);
  if (c == nullptr) return false;
  // Cancel every reservation the customer holds (releases capacity).
  c->forEachReservation(tx, [&](ReservationType type, Key id, Money) {
    Reservation* r = findReservation(tx, type, id);
    if (r != nullptr) r->cancel(tx);
  });
  customers_->eraseTx(tx, customerId);
  tx.onCommit([this, c] { retireCustomer(c); });
  return true;
}

Money Manager::queryCustomerBill(stm::Tx& tx, Key customerId) {
  Customer* c = findCustomer(tx, customerId);
  if (c == nullptr) return -1;
  return c->bill(tx);
}

std::int64_t Manager::queryFree(stm::Tx& tx, ReservationType type, Key id) {
  Reservation* r = findReservation(tx, type, id);
  return r == nullptr ? -1 : r->numFree(tx);
}

Money Manager::queryPrice(stm::Tx& tx, ReservationType type, Key id) {
  Reservation* r = findReservation(tx, type, id);
  return r == nullptr ? -1 : r->price(tx);
}

bool Manager::reserve(stm::Tx& tx, ReservationType type, Key customerId,
                      Key id) {
  Customer* c = findCustomer(tx, customerId);
  if (c == nullptr) return false;
  Reservation* r = findReservation(tx, type, id);
  if (r == nullptr) return false;
  if (!r->make(tx)) return false;
  if (!c->addReservationInfo(tx, type, id, r->price(tx))) {
    // Already reserved: undo the capacity grab (same transaction, so this
    // is just a buffered-write fixup).
    r->cancel(tx);
    return false;
  }
  return true;
}

bool Manager::cancel(stm::Tx& tx, ReservationType type, Key customerId,
                     Key id) {
  Customer* c = findCustomer(tx, customerId);
  if (c == nullptr) return false;
  Reservation* r = findReservation(tx, type, id);
  if (r == nullptr) return false;
  if (!c->removeReservationInfo(tx, type, id)) return false;
  return r->cancel(tx);
}

void Manager::retireReservation(Reservation* r) {
  std::lock_guard<std::mutex> lk(limboMu_);
  limbo_.retire(r, &deleteReservationObj);
  if (++retireTick_ % 16 == 0) {
    limbo_.tryCollect();
    limbo_.openEpoch();
  }
}

void Manager::retireCustomer(Customer* c) {
  std::lock_guard<std::mutex> lk(limboMu_);
  limbo_.retire(c, &deleteCustomerObj);
  if (++retireTick_ % 16 == 0) {
    limbo_.tryCollect();
    limbo_.openEpoch();
  }
}

bool Manager::checkConsistency(std::string* error) {
  // Quiesced: walk the tables directly.
  std::unordered_map<sftree::Key, std::int64_t> usedByCustomers;
  for (const Key cid : customers_->keysInOrder()) {
    const auto v = customers_->get(cid);
    if (!v) continue;
    auto* c = decodePtr<Customer>(*v);
    for (const auto& [infoKey, price] : c->reservationItems()) {
      (void)price;
      ++usedByCustomers[infoKey];
    }
  }
  for (int t = 0; t < kNumReservationTypes; ++t) {
    const auto type = static_cast<ReservationType>(t);
    for (const Key id : tables_[t]->keysInOrder()) {
      const auto v = tables_[t]->get(id);
      if (!v) continue;
      auto* r = decodePtr<Reservation>(*v);
      if (r->numFreeRelaxed() + r->numUsedRelaxed() != r->numTotalRelaxed()) {
        if (error) {
          std::ostringstream os;
          os << reservationTypeName(type) << " " << id
             << ": free+used != total";
          *error = os.str();
        }
        return false;
      }
      if (r->numFreeRelaxed() < 0 || r->numUsedRelaxed() < 0) {
        if (error) *error = "negative capacity";
        return false;
      }
      const auto it = usedByCustomers.find(Customer::infoKey(type, id));
      const std::int64_t held = it == usedByCustomers.end() ? 0 : it->second;
      if (held != r->numUsedRelaxed()) {
        if (error) {
          std::ostringstream os;
          os << reservationTypeName(type) << " " << id << ": numUsed="
             << r->numUsedRelaxed() << " but customers hold " << held;
          *error = os.str();
        }
        return false;
      }
    }
  }
  return true;
}

}  // namespace sftree::vacation
