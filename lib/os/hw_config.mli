(** The simulated machine and the protocol parameters of a cluster.

    The machine is fixed: the paper runs on the Tandem NonStop II (2–16
    processors per node, dual 13.5 MB/s interprocessor buses), so its costs
    are constants below, approximating that generation in order of
    magnitude. Absolute values are not load-bearing for any experiment — the
    *ratios* are (interprocessor bus ≪ network link; disc access ≫ CPU op),
    because those ratios drive the paper's design decisions: broadcast
    within a node but participants-only across the network, and checkpoint
    instead of write-ahead-log forcing.

    {!t} is the one boot-time configuration every service reads through
    [Net.config]: the disc access time plus the batching and protocol knobs
    that an ablation, scenario or CLI command sets. *)

(** {1 Fixed hardware costs} *)

val same_cpu_latency : Tandem_sim.Sim_time.span
(** Message between processes on one processor (100 µs). *)

val bus_latency : Tandem_sim.Sim_time.span
(** One transfer over the (dual 13.5 MB/s) interprocessor bus (500 µs). *)

val network_latency : Tandem_sim.Sim_time.span
(** One hop over a data-communications link between nodes (10 ms). *)

val cpu_message_cost : Tandem_sim.Sim_time.span
(** Processor time consumed dispatching and handling one message
    (500 µs). *)

val cpu_db_op_cost : Tandem_sim.Sim_time.span
(** Processor time for one data-base operation in the DISCPROCESS (2 ms). *)

val cpu_server_cost : Tandem_sim.Sim_time.span
(** Processor time for the application logic of one server request
    (3 ms). *)

val failure_detection : Tandem_sim.Sim_time.span
(** Time for the "I'm alive" protocol to declare a processor down (1 s). *)

val rpc_timeout : Tandem_sim.Sim_time.span
(** Default requester-side timeout on a request/reply exchange (2 s). *)

val rpc_retries : int
(** Automatic path retries (re-resolving process names, so a retry reaches
    the backup of a process-pair after takeover): 3. *)

val net_retransmit : Tandem_sim.Sim_time.span
(** End-to-end protocol retransmission interval (200 ms). *)

val net_attempts : int
(** End-to-end protocol send attempts before giving up: 5. *)

val boxcar_marginal_cost : Tandem_sim.Sim_time.span
(** Extra delivery latency paid by each additional message riding in a
    boxcar after the first — the per-message cost that remains after the
    link latency is amortized (10 µs). *)

(** {1 Boot-time configuration} *)

type t = {
  disc_access : Tandem_sim.Sim_time.span;
      (** One physical disc access (seek + rotation + transfer). *)
  dp_checkpoint_coalescing : bool;
      (** Coalesce the DISCPROCESS checkpoint to its backup into one bus
          round trip per client request (carrying every audit image the
          request produced) instead of one per image. [false] restores the
          per-record mode as an ablation. *)
  boxcar_window : Tandem_sim.Sim_time.span;
      (** Outbound network messages to the same destination node departing
          within this window share one scheduled delivery ("boxcarring").
          Zero disables batching: every message departs immediately. *)
  group_commit_window : Tandem_sim.Sim_time.span;
      (** Force daemons wait this long after the first force wish arrives so
          that concurrent phase-one forces on a volume share one physical
          write. Zero (the default) forces as soon as the daemon wakes. *)
  disc_cache_blocks : int;
      (** Capacity of the volume-level (controller) block cache wired into
          the read path, with write-behind of dirty blocks on force. Zero
          (the default) disables the cache: every block I/O is physical. *)
  lock_timeout : Tandem_sim.Sim_time.span;
      (** A lock request times out after this interval (default 2 s); the
          File System carries it on every DISCPROCESS request, and the
          resulting lock-timeout error is transient, so the TCP restarts
          the transaction. *)
  tmp_read_only_votes : bool;
      (** A child node whose DISCPROCESSes logged no audit images for a
          transid answers phase one with a read-only vote: it releases its
          locks immediately, writes no monitor-trail record and is pruned
          from the phase-two safe-delivery fan-out. [false] restores the
          full-protocol vote as an ablation. *)
  tmp_presumed_abort : bool;
      (** Aborts skip the forced monitor-trail record and the phase-two
          acknowledgment round: the abort record is written unforced and
          phase-two abort messages are one-shot. Restart/ROLLFORWARD
          resolves an in-doubt transid with no home record to abort by
          presumption. [false] restores forced-abort as an ablation. *)
  tmp_single_node_fast_path : bool;
      (** A transid whose spanning tree never left the home node commits
          with a single local force (the commit marker rides the data-log
          force) and no TMP phase rounds. [false] restores the full local
          protocol as an ablation. *)
  tmp_commit_protocol : [ `Two_phase | `Paxos of int ];
      (** Commit protocol for distributed transactions. [`Two_phase] is the
          paper's TMP protocol: the verdict's only durable home is the home
          node's Monitor Audit Trail, so a voted-yes participant blocks —
          locks held — while the home is down. [`Paxos n] is Gray &
          Lamport's Paxos Commit over [n = 2f+1] acceptor processes: each
          participant's vote is a ballot-0 Paxos instance replicated to the
          acceptor set, the verdict is a pure function of any acceptor
          majority, and a surviving node can drive stuck instances to a
          verdict with a higher ballot after the home dies. Single-node
          transactions keep the fast path under either protocol. *)
  parallel_prepare : bool;
      (** Send phase-one requests to a node's children concurrently instead
          of one at a time (the paper does not specify the order; the
          dispositions are identical either way — see the equivalence
          property test). Default [true]; serial remains as an ablation. *)
  transaction_time_limit : Tandem_sim.Sim_time.span;
      (** Automatic abort of a transaction that stays unresolved this long
          (default 60 s), unless this node has already voted yes — then its
          locks are held for the home node's disposition, per the
          protocol. *)
  restart_limit : int;
      (** Transaction restarts the TCP allows one terminal input (default
          3); the next restart reports the input failed. *)
  rollforward_parallelism : [ `Sequential | `Chains of int ];
      (** How the one ROLLFORWARD replay engine partitions the surviving
          audit into chains and how many workers apply them.
          [`Sequential] (the default) makes each trail one chain in audit
          order, on one worker with no read-ahead — the paper's algorithm
          and the ablation baseline. [`Chains n] makes each trail's
          dependency chains (connected components of the
          inter-transaction edges the audit layer logs at append time) the
          chains and replays them concurrently on [n] fiber workers, with
          read-ahead when [n > 1]; records of dependent transactions keep
          their audit order, so the final logical state is identical to
          sequential replay. *)
}

val default : t

val knob_docs : (string * string * string) list
(** [(name, default, description)] for every configuration knob, in
    declaration order — the single source for the CLI's knob listing so the
    documentation cannot drift from the record. *)
