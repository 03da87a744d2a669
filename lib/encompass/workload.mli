(** Canonical workloads.

    Debit-credit is the banking transaction of the era (the shape later
    standardized as TPC-A): update an account, its teller and its branch,
    and append a history record. The transfer variant moves funds between
    two accounts — across nodes when the account file is partitioned over
    the network — and is the workload for the distributed-commit and
    deadlock experiments.

    The invariant used by consistency checks: the sum of all account
    balances is conserved by transfers, and equals initial funds plus the
    net of committed deltas for debit-credit. *)

type bank_spec = {
  accounts : int;
  tellers : int;
  branches : int;
  initial_balance : int;
  account_partitions : (Tandem_os.Ids.node_id * string) list;
      (** Volumes sharing the account file, in key-range order. *)
  system_home : Tandem_os.Ids.node_id * string;
      (** Volume for the teller, branch and history files. *)
}

val account_file : string
val teller_file : string
val branch_file : string
val history_file : string

val install_bank : Cluster.t -> bank_spec -> unit
(** Define and preload the four files. *)

val add_bank_servers :
  Cluster.t ->
  node:Tandem_os.Ids.node_id ->
  ?class_name:string ->
  ?history_file:string ->
  count:int ->
  unit ->
  Server.t
(** A server class running debit-credit requests, ["BANK"] by default.
    Server-class names are cluster-global, so multi-node configurations
    that want a class per node (the scale-out benchmark) pass distinct
    [class_name]s — e.g. ["BANK3"] on node 3 — and pair each with
    {!debit_credit_program_for}. [history_file] (default {!history_file})
    lets each such class append to a node-local entry-sequenced history
    partition rather than funnelling every append to one volume. *)

val add_transfer_servers :
  Cluster.t ->
  node:Tandem_os.Ids.node_id ->
  ?class_name:string ->
  count:int ->
  unit ->
  Server.t
(** A server class moving funds between two accounts, ["TRANSFER"] by
    default. *)

val add_inquiry_servers :
  Cluster.t ->
  node:Tandem_os.Ids.node_id ->
  ?class_name:string ->
  count:int ->
  unit ->
  Server.t
(** A server class — ["INQUIRY"] by default — that reads one account's
    balance and writes nothing: the transaction that exercises the
    read-only vote and zero-force commit paths. *)

val build_bank :
  ?seed:int ->
  ?config:Tandem_os.Hw_config.t ->
  ?nodes:int ->
  ?cpus:int ->
  ?volumes:Tandem_os.Ids.node_id list ->
  ?cache_capacity:int ->
  ?tellers:int ->
  ?branches:int ->
  ?initial_balance:int ->
  accounts:int ->
  servers:[ `Bank of int | `Transfer of int | `Inquiry of int ] list ->
  unit ->
  Cluster.t * bank_spec
(** Boot the standard bank, Figure 2's configuration, and return the
    cluster with the spec of its data:
    - nodes [1..nodes] (default 1), each with [cpus] processors (default
      4), every pair linked;
    - one mirrored data volume per entry of [volumes], naming its node
      (default one per node). Volume [i] (from 1) is ["$DATA<i>"]; the
      [r]-th volume on a node (from 0) runs its DISCPROCESS pair on
      processors [(2+r) mod cpus] and [(3+r) mod cpus], with a cache of
      [cache_capacity] blocks (default {!Cluster.add_volume}'s);
    - {!install_bank} over the volumes in order, the first being the
      system home; [tellers] defaults to 10, [branches] to 5 and
      [initial_balance] to 1000;
    - the [servers] classes, in list order, all on node 1.

    The caller adds its own TCPs and input queues. *)

val debit_credit_program : Screen_program.t
(** BEGIN; SEND to BANK; END. *)

val transfer_program : Screen_program.t

val balance_inquiry_program : Screen_program.t
(** BEGIN; SEND to INQUIRY; END — a transaction with no audit images. *)

val debit_credit_program_for : server_class:string -> Screen_program.t
(** {!debit_credit_program} targeting a named server class, for per-node
    classes. *)

val transfer_program_for : server_class:string -> Screen_program.t

val balance_inquiry_program_for : server_class:string -> Screen_program.t

val debit_credit_input :
  Tandem_sim.Rng.t -> bank_spec -> ?skew:float -> unit -> string
(** One encoded debit-credit request; [skew] is the Zipf theta over
    accounts (default 0 = uniform). *)

val transfer_input :
  Tandem_sim.Rng.t -> bank_spec -> ?skew:float -> unit -> string

val transfer_input_between :
  from_account:int -> to_account:int -> amount:int -> string
(** A specific transfer (deadlock and distributed-commit scenarios). *)

val balance_inquiry_input :
  Tandem_sim.Rng.t -> bank_spec -> ?skew:float -> unit -> string
(** One encoded balance-inquiry request (read-only). *)

(** {1 Order entry}

    The second domain workload: an audited ORDER file with a secondary
    index on the customer field — multi-key access with automatic index
    maintenance, including under backout. *)

val order_file : string

val install_orders :
  Cluster.t -> home:Tandem_os.Ids.node_id * string -> unit
(** Define the ORDER file (key-sequenced, audited, indexed by customer) on
    the given node/volume. *)

val add_order_servers :
  Cluster.t -> node:Tandem_os.Ids.node_id -> count:int -> Server.t
(** The ["ORDER"] server class: [kind=new] inserts an order, [kind=query]
    returns the number of orders for a customer via the index. *)

val order_entry_program : Screen_program.t

val new_order_input : order:int -> customer:int -> item:int -> string

val customer_query_input : customer:int -> string

val orders_for_customer : Cluster.t -> home:Tandem_os.Ids.node_id * string -> customer:int -> int
(** Direct (unmetered) index count, for assertions. *)

val uncharged : Discprocess.t -> (unit -> 'a) -> 'a
(** [uncharged dp f] runs [f], a direct observation of [dp]'s files from
    outside any fiber, with the volume's physical-I/O charging suspended:
    no read suspends and none is charged. *)

val account_balance : Cluster.t -> account:int -> int option
(** Direct (unmetered) read of one account's balance, for assertions. *)

val total_balance : Cluster.t -> bank_spec -> int
(** Direct sum over every account partition. *)

val history_count : Cluster.t -> bank_spec -> int

val committed_delta_sum : Cluster.t -> bank_spec -> int
(** Sum of the "delta" fields over the HISTORY file — the net balance effect
    of every *committed* debit-credit (transfers and inquiries contribute
    nothing). The conservation invariant the chaos checker asserts is
    [total_balance = accounts * initial_balance + committed_delta_sum]: a
    lost committed update or a visible aborted one both break it. *)
