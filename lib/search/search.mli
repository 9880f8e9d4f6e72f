(** The pluggable metaheuristic search layer (paper §3.2/§4.1),
    generalized to multi-objective vector fitness (ROADMAP item #1).

    One contract ({!STRATEGY}, an ask/tell interface: propose a batch of
    genomes, receive their scores) and one driver ({!run}) that owns
    everything the strategies share — the evaluation budget, the
    genome-keyed score cache with dedup at batch granularity, best/
    history bookkeeping, plateau termination, a passive {!Pareto}
    archive, and [search.<name>.*] telemetry.  Fitness is a vector with
    one component per {!Objective} axis; the engine scalarizes it once
    per evaluation and every strategy decision runs on the scalar, so
    the 1-objective case (identity scalarization) is bit-identical to
    the historical float-only engine.  Five strategies ship: the
    generational GA (bit-identical to the pre-refactor [Ga.Genetic]
    engine), batched hill climbing and simulated annealing, a random
    baseline, and an OpenTuner-style AUC-bandit ensemble over the other
    four. *)

type problem = {
  ngenes : int;  (** genome length: the profile's flag count *)
  seeds : bool array list;
      (** the -Ox preset vectors; every strategy's first batch contains
          all of them (never-discard-seeds invariant) *)
  repair : bool array -> bool array;
      (** constraint repair; strategies apply it to every proposal *)
}

type termination = {
  max_evaluations : int;
  plateau_window : int;  (** evaluations with no relative improvement … *)
  plateau_epsilon : float;  (** … above this rate stop the search (0.35%) *)
}

val default_termination : termination

type score = {
  vec : float array;  (** raw objective vector, {!Objective.spec} order *)
  scalar : float;  (** the engine's scalarization — what strategies rank *)
}

type outcome = {
  best : bool array;  (** best genome under the scalarization *)
  best_fitness : float;  (** its scalarized fitness *)
  best_vector : float array;
      (** its raw objective vector ([[||]] when nothing was evaluated) *)
  evaluations : int;  (** distinct genomes scored *)
  history : (int * float) list;
      (** (evaluation index, best-so-far scalarized fitness), ascending *)
  front : (bool array * float array) list;
      (** the Pareto front at termination, fitness vectors descending
          lexicographically; collapses to a singleton on 1-objective
          runs *)
}

(** The strategy contract.  A strategy only decides what to try next;
    scoring, budget, dedup, history, and termination live in the
    engine. *)
module type STRATEGY = sig
  val name : string
  (** Registry / telemetry name ([search.<name>.*] spans and gauges). *)

  type state

  val init :
    rng:Util.Rng.t -> problem:problem -> termination:termination -> state
  (** Create the strategy's private state.  Must not evaluate anything
      and should not consume [rng] (so seeding stays with the first
      {!ask}). *)

  val ask : state -> rng:Util.Rng.t -> bool array array
  (** Propose the next batch.  Every genome must already be
      [problem.repair]-fixed.  The {e first} batch must contain every
      repaired seed.  Returning [[||]] means the strategy is exhausted
      and ends the search. *)

  val tell :
    state ->
    rng:Util.Rng.t ->
    genomes:bool array array ->
    scores:score option array ->
    unit
  (** Receive the scores for the batch the last {!ask} proposed, element
      for element.  [None] marks a genome the budget ran out before —
      treat it as unevaluated.  Cached genomes come back with their
      cached score at zero budget cost.  Strategies rank candidates by
      [scalar] only. *)
end

type strategy = (module STRATEGY)

val name : strategy -> string

val all_names : string list
(** Registry order: ["ga"; "hill"; "anneal"; "random"; "ensemble"]. *)

val of_name : string -> strategy
(** Look up a registered strategy (default parameters).
    @raise Invalid_argument on an unknown name. *)

val run :
  ?batch_fitness:(bool array array -> float array array) ->
  ?notify_incumbent:(float -> unit) ->
  ?scalarize:(float array -> float) ->
  ?axes:string list ->
  ?archive:Pareto.t ->
  rng:Util.Rng.t ->
  termination:termination ->
  problem:problem ->
  fitness:(bool array -> float array) ->
  strategy ->
  outcome
(** Maximize the scalarization of [fitness] with the given strategy,
    collecting the Pareto front of the raw vectors on the side.  Each
    generation the strategy's batch is deduplicated against the run's
    evaluation cache, truncated to the remaining budget, and scored as
    one array — by [batch_fitness] when given (element [i] of its
    result must be the fitness vector of genome [i]; the hook through
    which {!Bintuner.Tuner} fans a generation out across a
    {!Parallel.Pool}) and by mapping [fitness] otherwise.

    [scalarize] folds each vector to the float the strategies rank by;
    the default is [fun v -> v.(0)] — the exact 1-objective identity —
    and {!Objective.scalarize} builds the weighted-sum fold for a spec.
    [axes] names the vector components for the per-axis
    [search.<name>.best.<axis>] telemetry gauges.  [archive] is the
    Pareto archive to populate (a fresh default-bound one otherwise);
    inserts are passive — no randomness, no feedback into strategy
    decisions — so they cannot perturb the search trace.

    All search decisions stay on the caller's [rng] in the sequential
    part of the loop, so the outcome is a function of the inputs alone —
    independent of how a batch hook schedules its work.  The budget is
    enforced at batch granularity: a batch is truncated, never overrun.
    The seed batch is evaluated unconditionally; every later batch is
    gated on the budget and the plateau window.  The plateau test is
    relative gain at a positive incumbent and absolute gain at a zero or
    negative one (a relative test divides by zero or flips sign there).
    [notify_incumbent] is called with the best {e scalarized} fitness so
    far immediately before each batch is scored (so [neg_infinity]
    before the seed batch) — the hook through which a batch evaluator
    learns the score a candidate must beat (NCD early-exit); the value
    is pinned per batch, keeping pruning decisions
    scheduling-independent. *)

val run_scalar :
  ?batch_fitness:(bool array array -> float array) ->
  ?notify_incumbent:(float -> unit) ->
  ?archive:Pareto.t ->
  rng:Util.Rng.t ->
  termination:termination ->
  problem:problem ->
  fitness:(bool array -> float) ->
  strategy ->
  outcome
(** The historical scalar entry point: wraps every fitness in a
    singleton vector and runs {!run} with the identity scalarization.
    Bit-identical to the pre-vector float engine (frozen-GA
    differential). *)

(** Named fitness axes, objective-spec parsing ("ncd,gadgets:0.5"),
    weighted-sum scalarization, and memoized axis evaluation over
    binaries (one shared [Binsight.Report.inspect] per distinct binary
    for the static axes; injected hooks with per-axis memos for [ncd]
    and [evasion]). *)
module Objective : sig
  type axis = Ncd | Gadgets | Size | Evasion

  val all_axes : axis list
  val axis_name : axis -> string

  val axis_of_name : string -> axis
  (** @raise Invalid_argument on an unknown name. *)

  type spec = (axis * float) list
  (** Ordered (axis, weight) pairs; the order fixes the meaning of every
      fitness vector downstream.  Weights are positive. *)

  val default : spec
  (** [[(Ncd, 1.0)]] — the paper's scalar objective. *)

  val names : spec -> string list
  val arity : spec -> int

  val is_scalar_ncd : spec -> bool
  (** The 1-axis unit-weight NCD spec — the bit-identical scalar path. *)

  val parse : string -> spec
  (** ["ncd,gadgets:0.5,size"]: comma-separated axes, optional [:w]
      weight (default 1).  @raise Invalid_argument on unknown axes,
      duplicates, non-positive weights, or an empty spec. *)

  val to_string : spec -> string
  (** Inverse of {!parse}; unit weights print bare. *)

  val scalarize : spec -> float array -> float
  (** Weighted sum.  For a 1-axis unit-weight spec this is exactly
      [fun v -> v.(0)]. *)

  type evaluator

  val evaluator :
    ?gadget_k:int ->
    ?capacity:int ->
    ?ncd:(Isa.Binary.t -> float) ->
    ?evasion:(Isa.Binary.t -> float) ->
    spec ->
    evaluator
  (** Build the per-axis evaluation pipeline for a spec.  [gadgets] and
      [size] are computed from one shared [Report.inspect] per distinct
      binary, memoized content-addressed (a [capacity]-entry
      {!Util.Lru}); [ncd] and [evasion] must be injected (they
      depend on caller state — a baseline binary, a trained classifier)
      and get their own per-axis memos.  @raise Invalid_argument if the
      spec names an injected axis without its hook. *)

  val evaluate : evaluator -> Isa.Binary.t -> float array
  (** The fitness vector of one binary, in spec order. *)

  val memo_counts : evaluator -> (string * int * int) list
  (** (memo name, hits, misses) per memo, "inspect" first. *)
end

(** The Pareto-front archive: non-domination insert with dedup by
    fitness vector, crowding-distance pruning to a bound.  All axes are
    maximized.  Inserts consume no randomness — an archive wired into
    {!run} never perturbs the search trace. *)
module Pareto : sig
  type t

  val default_bound : int

  val create : ?bound:int -> unit -> t

  val size : t -> int

  val dominates : float array -> float array -> bool
  (** [dominates a b]: [a] at least as good everywhere, strictly better
      somewhere.  @raise Invalid_argument on arity mismatch. *)

  val insert : t -> bool array -> float array -> bool
  (** Offer a (genome, fitness vector); dominated candidates and
      duplicate vectors are rejected, dominated members are evicted,
      and one crowding-distance victim is pruned past the bound.
      Returns whether the candidate is in the front afterwards.
      @raise Invalid_argument on arity mismatch. *)

  val front : t -> (bool array * float array) list
  (** Fitness vectors descending lexicographically; copies. *)

  val is_non_dominated : ('a * float array) list -> bool
  (** Checker for externally-built fronts (CI gates, tests). *)
end

(** The generational GA (tournament selection, biased uniform crossover,
    forced-minimum mutation, elitism); bit-identical to the
    pre-refactor [Ga.Genetic.run]. *)
module Genetic : sig
  type params = {
    population_size : int;
    mutation_rate : float;  (** per-gene flip probability *)
    crossover_rate : float;  (** probability a pair recombines *)
    must_mutate_count : int;  (** minimum flips applied to each child *)
    crossover_strength : float;  (** bias towards the fitter parent *)
    tournament_size : int;
    elitism : int;  (** individuals copied unchanged per generation *)
  }

  val default_params : params
  val strategy : ?params:params -> unit -> strategy
end

(** Batched local search: steepest-ascent hill climbing with random
    restarts (each ask is the full single-bit-flip neighbourhood) and
    simulated annealing (each ask is [batch] proposals from the current
    point; Metropolis acceptance replayed in proposal order over a
    geometric temperature schedule driven by budget progress). *)
module Local : sig
  val hill_climb : unit -> strategy
  val anneal : ?batch:int -> ?t0:float -> ?t_end:float -> unit -> strategy
end

(** Random search — the control baseline. *)
module Baseline : sig
  val random : ?batch:int -> unit -> strategy
end

(** OpenTuner-style AUC-bandit meta-strategy: allocates each
    generation's batch to one sub-strategy by sliding-window
    improvement credit plus a UCB exploration bonus.  Default subs:
    ga, hill, anneal, random. *)
module Ensemble : sig
  val strategy :
    ?window:int ->
    ?exploration:float ->
    ?subs:strategy list ->
    unit ->
    strategy
end
