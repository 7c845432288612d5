// The travel-reservation database (STAMP vacation's manager.c equivalent):
// four tables — cars, flights, rooms, customers — implemented as
// transactional trees selected by MapKind, which is exactly how Figure 6
// compares the red-black tree, the optimized speculation-friendly tree and
// the no-restructuring tree as directory implementations.
#pragma once

#include <memory>
#include <mutex>

#include "gc/limbo_list.hpp"
#include "shard/maintenance_scheduler.hpp"
#include "trees/map_interface.hpp"
#include "vacation/customer.hpp"
#include "vacation/reservation.hpp"

namespace sftree::vacation {

class Manager {
 public:
  // txKind selects the TM mode of the underlying tree operations.
  Manager(trees::MapKind tableKind, stm::TxKind txKind);
  ~Manager();

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  // --- capacity / price management (UPDATE_TABLES action) ------------------
  // add*: creates the row if absent, otherwise adds capacity and updates
  // the price. delete*: removes `num` capacity (row stays, as in STAMP).
  bool addReservation(stm::Tx& tx, ReservationType type, Key id,
                      std::int64_t num, Money price);
  bool deleteReservationCapacity(stm::Tx& tx, ReservationType type, Key id,
                                 std::int64_t num);
  // Removes an entire flight if it has no used seats (STAMP
  // manager_deleteFlight).
  bool deleteFlight(stm::Tx& tx, Key id);

  // --- customers -------------------------------------------------------------
  bool addCustomer(stm::Tx& tx, Key customerId);
  // Cancels all the customer's reservations and removes the record;
  // returns false when the customer does not exist.
  bool deleteCustomer(stm::Tx& tx, Key customerId);
  // Total bill, or -1 when the customer does not exist (STAMP semantics).
  Money queryCustomerBill(stm::Tx& tx, Key customerId);

  // --- queries (MAKE_RESERVATION action) ------------------------------------
  // Free capacity, or -1 when the row does not exist.
  std::int64_t queryFree(stm::Tx& tx, ReservationType type, Key id);
  // Price, or -1 when the row does not exist.
  Money queryPrice(stm::Tx& tx, ReservationType type, Key id);

  // --- reservations -----------------------------------------------------------
  bool reserve(stm::Tx& tx, ReservationType type, Key customerId, Key id);
  bool cancel(stm::Tx& tx, ReservationType type, Key customerId, Key id);

  // --- consistency check (tests; quiesced) ----------------------------------
  // Verifies: numFree + numUsed == numTotal for every row, and the number
  // of customer reservation infos per row equals the row's numUsed.
  bool checkConsistency(std::string* error = nullptr);

  trees::ITransactionalMap& table(ReservationType type) {
    return *tables_[static_cast<int>(type)];
  }
  trees::ITransactionalMap& customerTable() { return *customers_; }

  // Null when the table kind needs no background restructuring.
  shard::MaintenanceScheduler* maintenanceScheduler() {
    return maintScheduler_.get();
  }

 private:
  Reservation* findReservation(stm::Tx& tx, ReservationType type, Key id);
  Customer* findCustomer(stm::Tx& tx, Key customerId);
  void retireReservation(Reservation* r);
  void retireCustomer(Customer* c);

  // One shared worker pool maintains all four tables (instead of four
  // dedicated rotator threads). Declared before the tables: they must
  // unregister (in their destructors) before the scheduler is destroyed.
  std::unique_ptr<shard::MaintenanceScheduler> maintScheduler_;
  std::unique_ptr<trees::ITransactionalMap> tables_[kNumReservationTypes];
  std::unique_ptr<trees::ITransactionalMap> customers_;

  // Row objects unlinked from the tables wait here for quiescence (every
  // manager operation runs inside a transaction, hence inside a bracket).
  std::mutex limboMu_;
  gc::LimboList limbo_;
  std::uint64_t retireTick_ = 0;
};

}  // namespace sftree::vacation
