/**
 * @file
 * Clang thread-safety annotation macros (no-ops elsewhere).
 *
 * Each Simulator steps on exactly one thread; independent runs may
 * share a process, one Simulator per thread. These macros state that
 * ownership contract — which state belongs to the simulation thread —
 * so clang's -Wthread-safety analysis can check it. Under gcc (the
 * default toolchain) every macro expands to nothing.
 */

#ifndef BEETHOVEN_BASE_THREAD_ANNOTATIONS_H
#define BEETHOVEN_BASE_THREAD_ANNOTATIONS_H

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define BTH_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef BTH_THREAD_ANNOTATION
#define BTH_THREAD_ANNOTATION(x)
#endif

#define BTH_CAPABILITY(x) BTH_THREAD_ANNOTATION(capability(x))
#define BTH_GUARDED_BY(x) BTH_THREAD_ANNOTATION(guarded_by(x))
#define BTH_REQUIRES(...) \
    BTH_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define BTH_ACQUIRE(...) \
    BTH_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define BTH_RELEASE(...) \
    BTH_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define BTH_ASSERT_CAPABILITY(x) \
    BTH_THREAD_ANNOTATION(assert_capability(x))

namespace beethoven
{

/**
 * The simulation thread, modeled as a capability. Event-kernel state
 * (the wake wheel, the tick-phase flag, the tick cursor) is
 * GUARDED_BY this role; the public Simulator entry points assert it,
 * private phase helpers REQUIRE it. One process-wide token stands for
 * "the thread that owns this Simulator": state is never shared between
 * Simulators, so every simulating thread holds it for its own.
 */
class BTH_CAPABILITY("sim-thread") ThreadRole
{
  public:
    /** Entry-point assertion that the calling thread owns this role. */
    void assertHeld() const BTH_ASSERT_CAPABILITY(this) {}
};

/** The (single) simulation thread role; defined in sim/simulator.cc. */
extern ThreadRole gSimThreadRole;

} // namespace beethoven

#endif // BEETHOVEN_BASE_THREAD_ANNOTATIONS_H
