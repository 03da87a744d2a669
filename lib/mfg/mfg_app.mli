(** The Tandem Manufacturing distributed data base (Figure 4).

    Four plants — Cupertino (1), Santa Clara (2), Reston (3) and
    Neufahrn (4) — each hold a replica of the *global* files (item master,
    bill of materials, purchase-order headers) and their own *local* files
    (stock, work-in-progress, history, purchase-order detail). Reads always
    use the local copy. Each global record has a master node: updates
    execute at the master and are propagated to the other copies as
    deferred updates through the master's suspense file, giving node
    autonomy at the price of temporary divergence. A naive design —
    updating every copy inside one TMF transaction — is also provided, as
    the foil for the autonomy experiment (E14). *)

type t

val plant_names : (Tandem_os.Ids.node_id * string) list
(** [(1, "Cupertino"); …] *)

val build : ?seed:int -> ?items:int -> unit -> t
(** A 4-node full-mesh cluster with the manufacturing schema installed and
    loaded: [items] item-master records (default 24) replicated everywhere,
    stock rows at every plant. Suspense monitors are not yet running. *)

val cluster : t -> Tandem_encompass.Cluster.t

val item_count : t -> int

val master_of : t -> item:int -> Tandem_os.Ids.node_id
(** The record's master node (assigned round-robin at load). *)

val start_monitors : t -> ?interval:Tandem_sim.Sim_time.span -> unit -> unit
(** Start one suspense monitor per plant. They run forever: drive the
    engine with a time bound afterwards. *)

val monitor : t -> Tandem_os.Ids.node_id -> Suspense.t option

(** {1 Submitting work} (each via the plant's TCP) *)

val submit_global_update :
  t -> via:Tandem_os.Ids.node_id -> item:int -> description:string -> unit
(** Master-node discipline: the update runs at the record's master and
    queues deferred updates for the other copies. *)

val submit_naive_update :
  t -> via:Tandem_os.Ids.node_id -> item:int -> description:string -> unit
(** Naive discipline: one transaction updating all four copies. *)

val submit_stock_update :
  t -> node:Tandem_os.Ids.node_id -> item:int -> quantity:int -> unit
(** Purely local transaction at one plant. *)

val define_bom :
  t -> assembly:int -> components:(int * int) list -> unit
(** Load a bill of materials for an assembly (component item, quantity per
    unit) into every plant's replica — global data, loaded like the item
    master. Must be called before the cluster runs. *)

val submit_build :
  t -> node:Tandem_os.Ids.node_id -> assembly:int -> units:int -> unit
(** A build order at one plant: one local transaction that reads the BOM
    (local replica), decrements stock for every component and opens a
    work-in-progress record. If any component is short, the whole
    transaction is rejected and no stock moves. *)

val submit_purchase_order :
  t ->
  via:Tandem_os.Ids.node_id ->
  order:int ->
  item:int ->
  quantity:int ->
  unit
(** Purchase order entry: the PO header is global (master-node discipline,
    replicated through the suspense machinery); the PO detail line is local
    to the ordering plant. One transaction covers both. *)

val wip_count : t -> node:Tandem_os.Ids.node_id -> int

val po_detail_count : t -> node:Tandem_os.Ids.node_id -> int

val po_header_everywhere : t -> order:int -> bool
(** Whether every plant's PO-HEAD replica carries the order (after the
    suspense monitors have propagated it). *)

val tcp : t -> Tandem_os.Ids.node_id -> Tandem_encompass.Tcp.t

(** {1 Observation} *)

val submissions : t -> int
(** Test hook: how many inputs this application instance has submitted (the
    round-robin terminal counter). Per instance by construction: a fresh
    application always starts at 0, however many others ran before it or are
    running beside it on another domain. *)

val replica_descriptions :
  t -> item:int -> (Tandem_os.Ids.node_id * string option) list
(** The "descr" field of the item as each plant currently sees it. *)

val replicas_converged : t -> bool
(** Every item identical at all four plants. *)

val divergent_items : t -> int

val suspense_backlog : t -> Tandem_os.Ids.node_id -> int

val stock_level : t -> node:Tandem_os.Ids.node_id -> item:int -> int option
