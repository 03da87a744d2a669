(** The data definition layer: file definitions and the data dictionary.

    A file definition names its organization, whether updates to it are
    TMF-audited, its secondary indices, and how it is partitioned by key
    range across volumes (possibly on multiple nodes) — the features the
    paper lists for the ENCOMPASS data-base manager. *)

type organization = Key_sequenced | Relative | Entry_sequenced

type index_def = { index_name : string; on_field : string }

type partition_def = {
  low_key : Key.t;  (** This partition holds keys [>= low_key]. *)
  node : Tandem_os.Ids.node_id;
  volume : string;
}

type file_def = {
  file_name : string;
  organization : organization;
  audited : bool;
  degree : int;  (** B+-tree minimum degree / segment size for the others. *)
  indices : index_def list;
  partitions : partition_def list;  (** Ascending; first is [Key.min_key]. *)
  restrict_to_nodes : Tandem_os.Ids.node_id list option;
      (** Security control by network node: when set, only requesters
          running on these nodes may access the file ([None] = open). *)
}

val define :
  name:string ->
  organization:organization ->
  ?audited:bool ->
  ?degree:int ->
  ?indices:index_def list ->
  ?restrict_to_nodes:Tandem_os.Ids.node_id list ->
  partitions:partition_def list ->
  unit ->
  file_def
(** Validates: at least one partition, first at [Key.min_key], strictly
    ascending low keys; indices only on key-sequenced files. [audited]
    defaults to [true], [degree] to [16]. *)

val node_allowed : file_def -> Tandem_os.Ids.node_id -> bool

val partition_for : file_def -> Key.t -> partition_def
(** The partition holding a key: the last whose [low_key] is [<= key]. *)

val partition_index : file_def -> Key.t -> int

(** {1 Data dictionary} *)

type t

val create_dictionary : unit -> t

val add : t -> file_def -> unit
(** Raises [Invalid_argument] on duplicate names. *)

val find : t -> string -> file_def option

val all : t -> file_def list
(** Test hook: every file definition in the dictionary. *)
