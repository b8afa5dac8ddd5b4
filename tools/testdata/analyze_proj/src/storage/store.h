// Fixture for the guarded-by pass: one annotated member, one bare member
// (finding), one justified suppression (silenced), one reasonless
// suppression (itself a finding), and one suppression naming the wrong
// rule (must not silence — suppressions are rule-exact). Cache owns no
// mutex: only its `mutable` members are checked — a bare one (finding), an
// atomic one and a justified suppression (silent), and a plain member
// (silent: not written through const methods).
#ifndef FIXTURE_STORAGE_STORE_H_
#define FIXTURE_STORAGE_STORE_H_

#include <atomic>

#include "common/mutex.h"

namespace storage {

class Store {
 public:
  void Put(int v);

 private:
  common::Mutex mu_;
  int annotated_ QFCARD_GUARDED_BY(mu_);
  int bad_count_;  // expect: guarded-by
  // qfcard-lint: ok(guarded-by): fixture: written once before threads start
  int noted_;
  // qfcard-lint: ok(guarded-by)
  int lazy_;  // expect: guarded-by
  // qfcard-lint: ok(lock-order): wrong rule on purpose; must not silence
  int mismatched_;  // expect: guarded-by
};

class Cache {
 public:
  int Get() const;

 private:
  mutable int last_hit_;  // expect: guarded-by
  mutable std::atomic<int> hits_{0};
  // qfcard-lint: ok(guarded-by): fixture: memo is written once under a
  // call_once before any reader runs
  mutable int memo_;
  int capacity_;
};

}  // namespace storage

#endif  // FIXTURE_STORAGE_STORE_H_
