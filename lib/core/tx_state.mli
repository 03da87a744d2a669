(** The transaction state machine of Figure 3.

    [Active] after BEGIN-TRANSACTION; [Ending] once END-TRANSACTION starts
    phase one (audit records being written); [Ended] once the commit record
    is in the Monitor Audit Trail (phase two releases locks); [Aborting]
    once the decision to back out is taken; [Aborted] once backout is
    complete. "Ending"/"Aborting" and "Ended"/"Aborted" are parallel states.
    After [Ended] or [Aborted] completes, the transid leaves the system. *)

type t = Active | Ending | Ended | Aborting | Aborted

val legal_transition : t -> t -> bool
(** Exactly the arcs of Figure 3:
    Active→Ending, Active→Aborting (failure/abort),
    Ending→Ended (phase two), Ending→Aborting (commit rejected),
    Aborting→Aborted (backout done). *)

val is_terminal : t -> bool

val to_string : t -> string

val all : t list
