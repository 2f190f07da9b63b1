//! The dispatching-policy abstraction.
//!
//! A *policy* is the per-dispatcher decision procedure of the paper's model:
//! given the round's [`DispatchContext`] and the number of jobs that arrived
//! at this dispatcher, it must immediately and independently pick a
//! destination server for each job. Policies are stateful objects (LSQ keeps
//! a local queue-length array, JIQ variants may cache idle sets, SCD caches
//! sorted orders), so the simulator instantiates **one policy object per
//! dispatcher** through a [`PolicyFactory`].

use crate::error::ModelError;
use crate::ids::{DispatcherId, ServerId};
use crate::snapshot::DispatchContext;
use crate::spec::ClusterSpec;
use rand::RngCore;

/// A boxed, heap-allocated policy object as handed out by a factory.
pub type BoxedPolicy = Box<dyn DispatchPolicy>;

/// A per-dispatcher dispatching policy.
///
/// # Determinism contract
///
/// Implementations must be deterministic given the RNG passed in: all
/// randomness must flow through `rng` so that simulations are reproducible
/// from a single seed. Two consequences the engine and runners rely on:
///
/// * **No hidden entropy or wall-clock dependence.** Identical `(ctx, batch,
///   RNG state)` must produce identical destinations *and* leave the RNG in
///   an identical state, or parallel runs would diverge from sequential ones
///   (the parallel runners promise bit-identical reports).
/// * **Accelerators must be invisible.** When a policy exploits the optional
///   shared [`RoundCache`](crate::RoundCache) on the context, or an internal
///   index structure (e.g. the tournament-tree queue views of the argmin
///   policies), decisions must be bit-identical to the plain implementation
///   — caches and indexes may change *costs*, never *choices*.
///
/// The simulator drives a policy as follows in every round `t`:
///
/// 1. [`observe_round`](DispatchPolicy::observe_round) is called exactly once
///    with the round's context, *before* any jobs are dispatched. Policies
///    that maintain local state across rounds (LSQ's local array, JIQ's idle
///    cache) refresh it here.
/// 2. If the dispatcher received `a(d) > 0` jobs,
///    [`dispatch_into`](DispatchPolicy::dispatch_into) is called once with
///    the batch size and must produce one destination per job. A
///    dispatcher with an empty batch gets no dispatch call at all, so
///    policies must not rely on being invoked every round.
///
/// # Example
///
/// ```
/// use scd_model::{DispatchContext, DispatchPolicy, ServerId};
///
/// /// Round-robin over servers, ignoring all state.
/// struct RoundRobin { next: usize }
///
/// impl DispatchPolicy for RoundRobin {
///     fn policy_name(&self) -> &str { "round-robin" }
///     fn dispatch_into(
///         &mut self,
///         ctx: &DispatchContext<'_>,
///         batch: usize,
///         out: &mut Vec<ServerId>,
///         _rng: &mut dyn rand::RngCore,
///     ) {
///         for _ in 0..batch {
///             out.push(ServerId::new(self.next % ctx.num_servers()));
///             self.next += 1;
///         }
///     }
/// }
/// ```
pub trait DispatchPolicy: Send {
    /// Human-readable name of the policy ("SCD", "JSQ", "hLSQ", ...). Used in
    /// experiment output and legends.
    fn policy_name(&self) -> &str;

    /// Called once at the start of every round with the fresh queue-length
    /// snapshot, before any dispatching happens.
    ///
    /// The default implementation does nothing; policies without cross-round
    /// state do not need to override it.
    fn observe_round(&mut self, ctx: &DispatchContext<'_>, rng: &mut dyn RngCore) {
        let _ = (ctx, rng);
    }

    /// How much of the shared per-round [`RoundCache`](crate::RoundCache)
    /// this policy reads from the context. The engine refreshes only what
    /// the most demanding policy of the run declares: policies that never
    /// touch the cache cost nothing, and only solver consumers (SCD) pay
    /// for the tables.
    ///
    /// The declaration must not change decisions — the cache is a pure
    /// accelerator (see the determinism contract above). Reading a table
    /// beyond the declared demand yields an empty slice, which the
    /// consumers reject loudly. The default is
    /// [`CacheDemand::None`](crate::CacheDemand::None).
    fn round_cache_demand(&self) -> crate::CacheDemand {
        crate::CacheDemand::None
    }

    /// Chooses a destination server for each of the `batch` jobs that arrived
    /// at this dispatcher in the current round, appending exactly `batch`
    /// destinations to `out`. The engine validates them via
    /// [`validate_assignment`].
    ///
    /// # Buffer-reuse rules
    ///
    /// The simulation engine calls this method in its hot loop with **one**
    /// scratch buffer that it clears (`out.clear()`) before every call and
    /// reuses across rounds and dispatchers, so policies keep the
    /// steady-state round loop free of heap allocations. Implementations
    /// must therefore:
    ///
    /// * only **append** to `out` — never read, assume, or clear existing
    ///   contents (the engine owns the clearing);
    /// * keep their own scratch state (local queue copies, priority buffers,
    ///   tree nodes, probability vectors) inside `self`, sized lazily and
    ///   reused, so repeated calls allocate nothing in steady state;
    /// * never let scratch contents from a previous round influence
    ///   decisions, unless carrying state across rounds is the policy's
    ///   documented semantics (LSQ/LED local estimates).
    fn dispatch_into(
        &mut self,
        ctx: &DispatchContext<'_>,
        batch: usize,
        out: &mut Vec<ServerId>,
        rng: &mut dyn RngCore,
    );

    /// Allocating convenience over
    /// [`dispatch_into`](DispatchPolicy::dispatch_into): returns the `batch`
    /// destinations in a fresh vector, with the same RNG consumption.
    fn dispatch_batch(
        &mut self,
        ctx: &DispatchContext<'_>,
        batch: usize,
        rng: &mut dyn RngCore,
    ) -> Vec<ServerId> {
        let mut out = Vec::with_capacity(batch);
        self.dispatch_into(ctx, batch, &mut out, rng);
        out
    }

    /// Serializes the policy's cross-round state into `out` for an engine
    /// checkpoint taken at a round boundary.
    ///
    /// The resulting blob is opaque to the engine; it is handed back
    /// verbatim to [`restore_state`](DispatchPolicy::restore_state) on a
    /// policy object freshly built by the same factory. Together the pair
    /// must uphold the checkpoint contract: after restore, the policy's
    /// future decisions *and RNG consumption* are bit-identical to the
    /// original object continuing uninterrupted. State that is rebuilt from
    /// the context every round (scratch buffers, derived tables) need not be
    /// saved — only state whose loss would change a decision or an RNG draw
    /// (local queue mirrors, warm priority epochs, round-robin cursors).
    ///
    /// The default implementation writes nothing, which is correct for
    /// stateless policies and for policies whose state is recomputed from
    /// the first restored round's context before any decision.
    fn save_state(&self, out: &mut Vec<u8>) {
        let _ = out;
    }

    /// Restores cross-round state captured by
    /// [`save_state`](DispatchPolicy::save_state) into a freshly built
    /// policy object.
    ///
    /// Called exactly once, immediately after the factory builds the object
    /// and before the first [`observe_round`](DispatchPolicy::observe_round)
    /// of the resumed run.
    ///
    /// # Errors
    /// Returns a message when the blob does not parse (truncated, trailing
    /// bytes, or dimensions that contradict the policy's configuration); the
    /// engine classifies this as an invalid checkpoint rather than
    /// panicking. The default implementation accepts only the empty blob the
    /// default `save_state` writes.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "policy {:?} is stateless but its checkpoint blob has {} bytes",
                self.policy_name(),
                bytes.len()
            ))
        }
    }
}

/// Validates an assignment returned by a policy against the batch size and
/// cluster size.
///
/// # Errors
/// Returns [`ModelError::AssignmentArity`] when the number of destinations
/// does not equal the batch size and [`ModelError::UnknownServer`] when any
/// destination is out of range.
pub fn validate_assignment(
    assignment: &[ServerId],
    batch: usize,
    num_servers: usize,
) -> Result<(), ModelError> {
    if assignment.len() != batch {
        return Err(ModelError::AssignmentArity {
            got: assignment.len(),
            expected: batch,
        });
    }
    for dest in assignment {
        if dest.index() >= num_servers {
            return Err(ModelError::UnknownServer {
                server: dest.index(),
                num_servers,
            });
        }
    }
    Ok(())
}

/// Creates one [`DispatchPolicy`] instance per dispatcher.
///
/// Factories are what experiment configurations name: "run this system with
/// SCD", "with hLSQ", etc. The factory sees the cluster specification so it
/// can pre-compute static data (e.g. the weighted-random sampler of WR, the
/// rate-proportional probe distribution of the `h*` policies).
pub trait PolicyFactory: Send + Sync {
    /// Name of the policy family produced by this factory.
    fn name(&self) -> &str;

    /// Builds the policy instance used by dispatcher `dispatcher`.
    fn build(&self, dispatcher: DispatcherId, spec: &ClusterSpec) -> BoxedPolicy;
}

impl<F> PolicyFactory for F
where
    F: Fn(DispatcherId, &ClusterSpec) -> BoxedPolicy + Send + Sync,
{
    fn name(&self) -> &str {
        "closure-policy"
    }

    fn build(&self, dispatcher: DispatcherId, spec: &ClusterSpec) -> BoxedPolicy {
        self(dispatcher, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct ToFirst;

    impl DispatchPolicy for ToFirst {
        fn policy_name(&self) -> &str {
            "to-first"
        }

        fn dispatch_into(
            &mut self,
            _ctx: &DispatchContext<'_>,
            batch: usize,
            out: &mut Vec<ServerId>,
            _rng: &mut dyn RngCore,
        ) {
            out.resize(out.len() + batch, ServerId::new(0));
        }
    }

    #[test]
    fn default_observe_round_is_a_no_op() {
        let queues = vec![0u64, 0];
        let rates = vec![1.0, 1.0];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(0);
        let mut p = ToFirst;
        p.observe_round(&ctx, &mut rng);
        let out = p.dispatch_batch(&ctx, 5, &mut rng);
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|s| s.index() == 0));
    }

    #[test]
    fn validate_assignment_accepts_correct_output() {
        let out = vec![ServerId::new(0), ServerId::new(1)];
        assert!(validate_assignment(&out, 2, 2).is_ok());
    }

    #[test]
    fn validate_assignment_rejects_wrong_arity() {
        let out = vec![ServerId::new(0)];
        assert_eq!(
            validate_assignment(&out, 2, 4),
            Err(ModelError::AssignmentArity {
                got: 1,
                expected: 2
            })
        );
    }

    #[test]
    fn validate_assignment_rejects_out_of_range_server() {
        let out = vec![ServerId::new(7)];
        assert_eq!(
            validate_assignment(&out, 1, 4),
            Err(ModelError::UnknownServer {
                server: 7,
                num_servers: 4
            })
        );
    }

    #[test]
    fn default_state_hooks_round_trip_the_empty_blob_only() {
        let mut p = ToFirst;
        let mut blob = Vec::new();
        p.save_state(&mut blob);
        assert!(blob.is_empty());
        assert!(p.restore_state(&blob).is_ok());
        assert!(p.restore_state(&[1, 2, 3]).is_err());
    }

    #[test]
    fn closures_act_as_factories() {
        let factory = |_d: DispatcherId, _spec: &ClusterSpec| -> BoxedPolicy { Box::new(ToFirst) };
        let spec = ClusterSpec::homogeneous(2, 1.0).unwrap();
        let policy = factory.build(DispatcherId::new(0), &spec);
        assert_eq!(policy.policy_name(), "to-first");
        assert_eq!(PolicyFactory::name(&factory), "closure-policy");
    }
}
