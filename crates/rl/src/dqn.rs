//! The deep Q-network agent (Sec. III-E).
//!
//! Prediction + target networks, a 1000-entry experience replay buffer,
//! minibatch size 100, target sync every 168 iterations, learning rate
//! 1e-4, discount 0.9, ε-greedy 0.05 — all per the paper. Training is
//! offline; deployment stores only the prediction network's weights.

use crate::linalg::argmax;
use crate::mlp::{Gradients, Mlp};
use adaptnoc_sim::json::{self, Value};
use adaptnoc_sim::rng::Rng;
use std::sync::Arc;

/// One experience-replay transition.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// State at decision time.
    pub state: Vec<f64>,
    /// Action taken.
    pub action: usize,
    /// Observed reward.
    pub reward: f64,
    /// Next state.
    pub next_state: Vec<f64>,
}

/// Hyper-parameters, defaulting to the paper's values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DqnConfig {
    /// State dimension (12).
    pub state_dim: usize,
    /// Number of actions (4 topologies).
    pub actions: usize,
    /// Hidden layer width (15, two layers).
    pub hidden: usize,
    /// Neural-network learning rate (1e-4, Sec. III-E).
    pub learning_rate: f64,
    /// Discount factor γ (0.9, Sec. IV-A).
    pub gamma: f64,
    /// Exploration rate ε (0.05, Sec. IV-A).
    pub epsilon: f64,
    /// Replay buffer capacity (1000 entries).
    pub replay_capacity: usize,
    /// Minibatch size (100).
    pub minibatch: usize,
    /// Target-network sync period in training iterations (168).
    pub target_sync: u64,
}

impl Default for DqnConfig {
    fn default() -> Self {
        DqnConfig {
            state_dim: crate::state::STATE_DIM,
            actions: 4,
            hidden: 15,
            learning_rate: 1e-4,
            gamma: 0.9,
            epsilon: 0.05,
            replay_capacity: 1000,
            minibatch: 100,
            target_sync: 168,
        }
    }
}

/// The experience replay ring buffer.
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    buf: Vec<Transition>,
    capacity: usize,
    next: usize,
}

impl ReplayBuffer {
    /// Creates a buffer of the given capacity.
    pub fn new(capacity: usize) -> Self {
        ReplayBuffer {
            buf: Vec::with_capacity(capacity),
            capacity,
            next: 0,
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Inserts a transition, overwriting the oldest once full.
    pub fn push(&mut self, t: Transition) {
        if self.buf.len() < self.capacity {
            self.buf.push(t);
        } else {
            self.buf[self.next] = t;
        }
        self.next = (self.next + 1) % self.capacity.max(1);
    }

    /// Samples `n` transitions uniformly with replacement.
    pub fn sample<'a>(&'a self, n: usize, rng: &mut Rng) -> Vec<&'a Transition> {
        (0..n)
            .map(|_| &self.buf[rng.random_below(self.buf.len())])
            .collect()
    }
}

/// The DQN agent.
#[derive(Debug, Clone)]
pub struct DqnAgent {
    /// Hyper-parameters.
    pub cfg: DqnConfig,
    prediction: Mlp,
    target: Mlp,
    replay: ReplayBuffer,
    iterations: u64,
    rng: Rng,
}

impl DqnAgent {
    /// Creates an agent with freshly initialized networks.
    pub fn new(cfg: DqnConfig, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let shape = [cfg.state_dim, cfg.hidden, cfg.hidden, cfg.actions];
        let prediction = Mlp::new(&shape, &mut rng);
        let mut target = Mlp::new(&shape, &mut rng);
        target.copy_from(&prediction);
        DqnAgent {
            replay: ReplayBuffer::new(cfg.replay_capacity),
            cfg,
            prediction,
            target,
            iterations: 0,
            rng,
        }
    }

    /// Q-values of the prediction network.
    pub fn q_values(&self, state: &[f64]) -> Vec<f64> {
        self.prediction.forward(state)
    }

    /// ε-greedy action selection. With `explore` false (pure deployment
    /// evaluation) the greedy action is always taken.
    pub fn select_action(&mut self, state: &[f64], explore: bool) -> usize {
        if explore && self.rng.random_f64() < self.cfg.epsilon {
            self.rng.random_below(self.cfg.actions)
        } else {
            argmax(&self.prediction.forward(state))
        }
    }

    /// Stores a transition in the replay buffer.
    pub fn observe(&mut self, t: Transition) {
        self.replay.push(t);
    }

    /// One training iteration: sample a minibatch, regress the prediction
    /// network towards the TD targets computed with the target network,
    /// and periodically sync the target network. Returns the mean loss, or
    /// `None` if the buffer holds fewer than a minibatch of samples.
    pub fn train_step(&mut self) -> Option<f64> {
        if self.replay.len() < self.cfg.minibatch {
            return None;
        }
        let n = self.cfg.minibatch;
        let idxs: Vec<usize> = (0..n)
            .map(|_| self.rng.random_below(self.replay.len()))
            .collect();
        let mut acc = Gradients::zeros_like(&self.prediction);
        let mut loss_sum = 0.0;
        for &i in &idxs {
            let t = self.replay.buf[i].clone();
            let next_q = self.target.forward(&t.next_state);
            let max_next = next_q.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let td_target = t.reward + self.cfg.gamma * max_next;
            let mut target_vec = vec![0.0; self.cfg.actions];
            let mut mask = vec![0.0; self.cfg.actions];
            target_vec[t.action] = td_target;
            mask[t.action] = 1.0;
            let (g, l) = self.prediction.backprop(&t.state, &target_vec, &mask);
            acc.accumulate(&g, 1.0 / n as f64);
            loss_sum += l;
        }
        self.prediction.apply(&acc, self.cfg.learning_rate);
        self.iterations += 1;
        if self.iterations.is_multiple_of(self.cfg.target_sync) {
            self.target.copy_from(&self.prediction);
        }
        Some(loss_sum / n as f64)
    }

    /// Training iterations performed so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Extracts the trained prediction network (weight-only deployment).
    pub fn into_policy(self) -> TrainedPolicy {
        TrainedPolicy {
            net: Arc::new(self.prediction),
            epsilon: self.cfg.epsilon,
            actions: self.cfg.actions,
        }
    }

    /// Borrows the prediction network.
    pub fn network(&self) -> &Mlp {
        &self.prediction
    }
}

/// A deployed policy: just the trained network plus ε-greedy exploration,
/// matching the paper's hardware (weights only, no replay or target net).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedPolicy {
    /// The deployed network, shared: each region controller holds a clone
    /// of the policy, and an `Arc` makes those clones O(1) instead of
    /// copying the full weight matrices.
    net: Arc<Mlp>,
    epsilon: f64,
    actions: usize,
}

impl TrainedPolicy {
    /// Greedy action with ε exploration using the caller's RNG.
    pub fn decide(&self, state: &[f64], rng: &mut Rng) -> usize {
        if rng.random_f64() < self.epsilon {
            rng.random_below(self.actions)
        } else {
            argmax(&self.net.forward(state))
        }
    }

    /// Pure-greedy action (no exploration).
    pub fn decide_greedy(&self, state: &[f64]) -> usize {
        argmax(&self.net.forward(state))
    }

    /// Q-values of the deployed network.
    pub fn q_values(&self, state: &[f64]) -> Vec<f64> {
        self.net.forward(state)
    }

    /// Overrides the exploration rate (used by the Fig. 19 sweep).
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Serializes the policy (the weight-only artifact the paper stores in
    /// hardware) to a JSON string.
    ///
    /// # Errors
    ///
    /// Returns a message on serialization failure.
    pub fn to_json(&self) -> Result<String, String> {
        Ok(Value::Object(vec![
            ("net".into(), self.net.to_json()),
            ("epsilon".into(), Value::Number(self.epsilon)),
            ("actions".into(), Value::Number(self.actions as f64)),
        ])
        .to_string_compact())
    }

    /// Restores a policy from [`to_json`](Self::to_json) output.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed input.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let v = json::parse(s).map_err(|e| e.to_string())?;
        Ok(TrainedPolicy {
            net: Arc::new(Mlp::from_json(v.get("net").ok_or("policy missing 'net'")?)?),
            epsilon: v
                .get("epsilon")
                .and_then(Value::as_f64)
                .ok_or("policy missing 'epsilon'")?,
            actions: v
                .get("actions")
                .and_then(Value::as_u64)
                .ok_or("policy missing 'actions'")? as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper() {
        let c = DqnConfig::default();
        assert_eq!(c.state_dim, 12);
        assert_eq!(c.actions, 4);
        assert_eq!(c.hidden, 15);
        assert_eq!(c.learning_rate, 1e-4);
        assert_eq!(c.gamma, 0.9);
        assert_eq!(c.epsilon, 0.05);
        assert_eq!(c.replay_capacity, 1000);
        assert_eq!(c.minibatch, 100);
        assert_eq!(c.target_sync, 168);
    }

    #[test]
    fn replay_buffer_wraps_at_capacity() {
        let mut rb = ReplayBuffer::new(3);
        for i in 0..5 {
            rb.push(Transition {
                state: vec![i as f64],
                action: 0,
                reward: 0.0,
                next_state: vec![],
            });
        }
        assert_eq!(rb.len(), 3);
        let states: Vec<f64> = rb.buf.iter().map(|t| t.state[0]).collect();
        // Oldest (0 and 1) overwritten by 3 and 4.
        assert!(states.contains(&2.0));
        assert!(states.contains(&3.0));
        assert!(states.contains(&4.0));
    }

    #[test]
    fn no_training_below_minibatch() {
        let mut agent = DqnAgent::new(DqnConfig::default(), 1);
        for _ in 0..50 {
            agent.observe(Transition {
                state: vec![0.0; 12],
                action: 0,
                reward: 1.0,
                next_state: vec![0.0; 12],
            });
        }
        assert!(agent.train_step().is_none());
    }

    /// A contextual bandit: state bit i says which action pays off.
    /// The DQN must learn the mapping.
    #[test]
    fn dqn_learns_contextual_bandit() {
        let cfg = DqnConfig {
            state_dim: 4,
            actions: 4,
            hidden: 12,
            learning_rate: 5e-2,
            gamma: 0.0, // bandit: no future
            minibatch: 32,
            replay_capacity: 512,
            target_sync: 20,
            epsilon: 0.1,
        };
        let mut agent = DqnAgent::new(cfg, 7);
        let mut rng = Rng::seed_from_u64(99);
        // Generate experience.
        for _ in 0..600 {
            let ctx = rng.random_below(4);
            let mut state = vec![0.0; 4];
            state[ctx] = 1.0;
            let action = rng.random_below(4);
            let reward = if action == ctx { 1.0 } else { -1.0 };
            agent.observe(Transition {
                state: state.clone(),
                action,
                reward,
                next_state: state,
            });
        }
        for _ in 0..800 {
            agent.train_step().unwrap();
        }
        // The greedy policy must pick the context's action.
        for ctx in 0..4 {
            let mut state = vec![0.0; 4];
            state[ctx] = 1.0;
            let a = agent.select_action(&state, false);
            assert_eq!(a, ctx, "q-values {:?}", agent.q_values(&state));
        }
    }

    #[test]
    fn target_network_sync_period() {
        let cfg = DqnConfig {
            state_dim: 2,
            actions: 2,
            hidden: 4,
            minibatch: 4,
            target_sync: 3,
            ..Default::default()
        };
        let mut agent = DqnAgent::new(cfg, 3);
        for i in 0..10 {
            agent.observe(Transition {
                state: vec![i as f64 / 10.0, 0.0],
                action: i % 2,
                reward: 1.0,
                next_state: vec![0.0, 0.0],
            });
        }
        for _ in 0..6 {
            agent.train_step().unwrap();
        }
        assert_eq!(agent.iterations(), 6);
    }

    #[test]
    fn trained_policy_greedy_matches_agent() {
        let mut agent = DqnAgent::new(DqnConfig::default(), 11);
        let state = vec![0.3; 12];
        let greedy = agent.select_action(&state, false);
        let policy = agent.clone().into_policy();
        assert_eq!(policy.decide_greedy(&state), greedy);
        assert_eq!(policy.q_values(&state), agent.q_values(&state));
    }

    #[test]
    fn policy_json_roundtrip() {
        let agent = DqnAgent::new(DqnConfig::default(), 21);
        let policy = agent.into_policy();
        let json = policy.to_json().unwrap();
        let restored = TrainedPolicy::from_json(&json).unwrap();
        let state = vec![0.3; 12];
        // JSON float printing is shortest-roundtrip, so Q-values agree to
        // within an ulp or two.
        for (a, b) in policy
            .q_values(&state)
            .iter()
            .zip(restored.q_values(&state))
        {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        assert_eq!(policy.decide_greedy(&state), restored.decide_greedy(&state));
        assert!(TrainedPolicy::from_json("not json").is_err());
    }

    #[test]
    fn exploration_rate_shapes_decisions() {
        let agent = DqnAgent::new(DqnConfig::default(), 5);
        let policy = agent.into_policy().with_epsilon(1.0);
        let mut rng = Rng::seed_from_u64(0);
        let state = vec![0.5; 12];
        let greedy = policy.decide_greedy(&state);
        let picks: Vec<usize> = (0..100).map(|_| policy.decide(&state, &mut rng)).collect();
        // With epsilon=1 every action appears.
        for a in 0..4 {
            assert!(picks.contains(&a));
        }
        // With epsilon=0 only the greedy action appears.
        let policy0 = policy.with_epsilon(0.0);
        assert!((0..100).all(|_| policy0.decide(&state, &mut rng) == greedy));
    }
}
