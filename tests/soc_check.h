/**
 * @file
 * Shared end-to-end checking harness for tests that elaborate a full
 * AcceleratorSoc: arms the live SocInvariants observers for the
 * duration of the test, and finish() adds the end-state quiescence
 * check. The AXI protocol is checked as each beat is recorded.
 */

#ifndef BEETHOVEN_TESTS_SOC_CHECK_H
#define BEETHOVEN_TESTS_SOC_CHECK_H

#include "core/soc.h"
#include "verify/invariants.h"

namespace beethoven
{

class ScopedSocCheck
{
  public:
    explicit ScopedSocCheck(AcceleratorSoc &soc) : _inv(soc) {}

    /**
     * Call once all responses have been collected. Any invariant
     * violation during the run has already thrown; this adds the
     * end-state quiescence check.
     */
    void finish() { _inv.checkFinal(); }

  private:
    SocInvariants _inv;
};

} // namespace beethoven

#endif // BEETHOVEN_TESTS_SOC_CHECK_H
