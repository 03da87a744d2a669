(** Applies scheduled faults to a booted cluster.

    The scenario runner drives the engine up to each schedule entry's
    instant and then calls {!apply} from outside the event loop, so faults
    that themselves drive the engine (node recovery runs ROLLFORWARD to
    completion) are safe. Every application increments
    [chaos.faults_injected] and [chaos.faults_injected{kind=…}]; takeovers,
    retransmissions and the like are counted by the subsystems themselves
    ([os.pair_takeovers], [net.retransmits], …). *)

type t

val create : Tandem_encompass.Cluster.t -> t

val apply : t -> Fault.t -> unit
(** Inject one fault now.

    [Node_crash] takes an archive copy of the node immediately before
    crashing it, and [Node_recover] runs ROLLFORWARD from that archive
    (raising [Invalid_argument] if the node was never crashed).
    [Drive_revive] of a drive that is already up, and [Cpu_restore] of a
    processor that is already up, are no-ops — a schedule stays applicable
    even when an earlier repair already covered it. *)
