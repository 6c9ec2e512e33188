//! A transparent [`TransitionSystem`] wrapper that counts every model
//! callback and times a deterministic subsample of them.
//!
//! [`Traced`] forwards `name`, `initial_states`, every [`Rule`] (handing the
//! rule a forwarding [`HoleResolver`]), every [`Property`] and
//! `canonicalize` to the wrapped model, so the checker and the synthesizer
//! see the same transition system. The tallies live in a thread-local probe:
//! the benchmark runs single-threaded (`threads = check_threads =
//! 1`, where the engines stay on the calling thread), so counting costs a
//! plain increment instead of an atomic one.
//!
//! A clock read costs tens of nanoseconds, about as much as a rule body, so
//! timing every call would distort the run it measures. Every callback is
//! counted; one call in `SAMPLE_PERIOD`, chosen by a fixed-seed xorshift
//! stream (a fixed stride could alias with the rule-table order), is timed,
//! and the timed total is scaled by `calls / timed`. Each timed interval has
//! the calibrated cost of one clock read taken off.

use std::cell::Cell;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use verc3_mck::{
    Choice, HoleResolver, HoleSpec, NameCache, Property, Rule, RuleOutcome, TransitionSystem,
    WildcardTouch,
};

/// One timed call in this many, on average.
const SAMPLE_PERIOD: u64 = 32;

/// Tallies of one callback kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Calls that were timed.
    pub timed: u64,
    /// Summed duration of the timed calls, clock overhead removed.
    pub timed_ns: f64,
}

impl Tally {
    /// Estimated total time of all calls, in seconds.
    pub fn estimated_s(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.timed_ns * (self.calls as f64 / self.timed as f64) * 1e-9
        }
    }
}

/// Everything the probe saw since the last [`take`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Rule applications.
    pub rule: Tally,
    /// Rule applications that returned [`RuleOutcome::Next`].
    pub rule_fired: u64,
    /// Property predicate evaluations.
    pub property: Tally,
    /// `canonicalize` calls.
    pub canonicalize: Tally,
    /// Hole consultations (`HoleResolver::choose`) made by rule bodies.
    pub choose_calls: u64,
}

impl Counts {
    /// Every count (rule calls, rules fired, property calls, canonicalize
    /// calls, hole consultations): deterministic, so identical on every
    /// unit of a workload.
    pub fn calls(&self) -> [u64; 5] {
        [
            self.rule.calls,
            self.rule_fired,
            self.property.calls,
            self.canonicalize.calls,
            self.choose_calls,
        ]
    }

    /// Estimated time spent inside model callbacks, in seconds. Resolver
    /// consultations happen inside rule bodies and are part of `rule`.
    pub fn callback_s(&self) -> f64 {
        self.rule.estimated_s() + self.property.estimated_s() + self.canonicalize.estimated_s()
    }
}

struct Probe {
    rule: Cell<Tally>,
    rule_fired: Cell<u64>,
    property: Cell<Tally>,
    canonicalize: Cell<Tally>,
    choose_calls: Cell<u64>,
    rng: Cell<u64>,
}

const RNG_SEED: u64 = 0x9E37_79B9_7F4A_7C15;
const ZERO: Tally = Tally {
    calls: 0,
    timed: 0,
    timed_ns: 0.0,
};

thread_local! {
    static PROBE: Probe = const {
        Probe {
            rule: Cell::new(ZERO),
            rule_fired: Cell::new(0),
            property: Cell::new(ZERO),
            canonicalize: Cell::new(ZERO),
            choose_calls: Cell::new(0),
            rng: Cell::new(RNG_SEED),
        }
    };
}

impl Probe {
    fn tally(&self, kind: Kind) -> &Cell<Tally> {
        match kind {
            Kind::Rule => &self.rule,
            Kind::Property => &self.property,
            Kind::Canonicalize => &self.canonicalize,
        }
    }
}

/// Returns this thread's tallies and resets them (and the sampling stream,
/// so every unit of work samples the same calls).
pub fn take() -> Counts {
    PROBE.with(|p| {
        p.rng.set(RNG_SEED);
        Counts {
            rule: p.rule.take(),
            rule_fired: p.rule_fired.take(),
            property: p.property.take(),
            canonicalize: p.canonicalize.take(),
            choose_calls: p.choose_calls.take(),
        }
    })
}

/// The median cost of one `Instant::now()` read, in nanoseconds — what a
/// timed interval around an empty body measures.
pub fn clock_overhead_ns() -> f64 {
    static OVERHEAD: OnceLock<f64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut gaps: Vec<f64> = (0..2001)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_nanos() as f64
            })
            .collect();
        gaps.sort_by(f64::total_cmp);
        gaps[gaps.len() / 2]
    })
}

#[derive(Clone, Copy)]
enum Kind {
    Rule,
    Property,
    Canonicalize,
}

fn bump(counter: impl FnOnce(&Probe) -> &Cell<u64>) {
    PROBE.with(|p| {
        let c = counter(p);
        c.set(c.get() + 1);
    });
}

/// Counts one call of `kind` and runs it, timing it if the sampling stream
/// picks it.
#[inline]
fn observe<T>(kind: Kind, body: impl FnOnce() -> T) -> T {
    let sampled = PROBE.with(|p| {
        let tally = p.tally(kind);
        tally.set(Tally {
            calls: tally.get().calls + 1,
            ..tally.get()
        });
        let mut x = p.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        p.rng.set(x);
        x % SAMPLE_PERIOD == 0
    });
    if !sampled {
        return body();
    }
    let start = Instant::now();
    let out = body();
    let ns = start.elapsed().as_nanos() as f64 - clock_overhead_ns();
    PROBE.with(|p| {
        let tally = p.tally(kind);
        let t = tally.get();
        tally.set(Tally {
            timed: t.timed + 1,
            timed_ns: t.timed_ns + ns.max(0.0),
            ..t
        });
    });
    out
}

/// Forwards every resolver call, counting hole consultations.
struct CountingResolver<'a, 'b>(&'a mut (dyn HoleResolver + 'b));

impl HoleResolver for CountingResolver<'_, '_> {
    fn choose(&mut self, hole: &HoleSpec) -> Choice {
        bump(|p| &p.choose_calls);
        self.0.choose(hole)
    }

    fn begin_application(&mut self) {
        self.0.begin_application()
    }

    fn application_touches(&self) -> &[(usize, u16)] {
        self.0.application_touches()
    }

    fn application_wildcards(&self) -> &[WildcardTouch] {
        self.0.application_wildcards()
    }

    fn application_fresh_touches(&self) -> &[(u32, u16)] {
        self.0.application_fresh_touches()
    }

    fn take_pending_discoveries(&mut self) -> Vec<HoleSpec> {
        self.0.take_pending_discoveries()
    }

    fn take_name_cache(&mut self) -> NameCache {
        self.0.take_name_cache()
    }
}

/// A model wrapped so that every callback into it is counted and sampled.
pub struct Traced<M: TransitionSystem> {
    inner: Arc<M>,
    rules: Vec<Rule<M::State>>,
    properties: Vec<Property<M::State>>,
}

impl<M> Traced<M>
where
    M: TransitionSystem + 'static,
{
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        let inner = Arc::new(inner);
        let rules = inner
            .rules()
            .iter()
            .enumerate()
            .map(|(i, rule)| {
                let model = Arc::clone(&inner);
                Rule::new(rule.name(), move |s: &M::State, ctx| {
                    let mut ctx = CountingResolver(ctx);
                    let out = observe(Kind::Rule, || model.rules()[i].apply(s, &mut ctx));
                    if matches!(out, RuleOutcome::Next(_)) {
                        bump(|p| &p.rule_fired);
                    }
                    out
                })
            })
            .collect();
        let properties = inner
            .properties()
            .iter()
            .enumerate()
            .map(|(i, property)| {
                let model = Arc::clone(&inner);
                let pred = move |s: &M::State| {
                    observe(Kind::Property, || match &model.properties()[i] {
                        Property::Invariant { pred, .. } | Property::Reachable { pred, .. } => {
                            pred(s)
                        }
                        Property::EventuallyQuiescent { quiescent, .. } => quiescent(s),
                    })
                };
                match property {
                    Property::Invariant { name, .. } => Property::invariant(name.clone(), pred),
                    Property::Reachable { name, .. } => Property::reachable(name.clone(), pred),
                    Property::EventuallyQuiescent { name, .. } => {
                        Property::eventually_quiescent(name.clone(), pred)
                    }
                }
            })
            .collect();
        Traced {
            inner,
            rules,
            properties,
        }
    }
}

impl<M: TransitionSystem> TransitionSystem for Traced<M> {
    type State = M::State;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initial_states(&self) -> Vec<M::State> {
        self.inner.initial_states()
    }

    fn rules(&self) -> &[Rule<M::State>] {
        &self.rules
    }

    fn canonicalize(&self, state: M::State) -> M::State {
        observe(Kind::Canonicalize, || self.inner.canonicalize(state))
    }

    fn properties(&self) -> &[Property<M::State>] {
        &self.properties
    }
}
