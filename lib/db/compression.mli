(** Data and index compression accounting.

    ENCOMPASS front-compresses keys within blocks (each key stores only the
    bytes that differ from its predecessor). The simulation's B-tree blocks
    hold their keys front-coded in memory too ({!Packed_keys}); this module
    computes the savings front-coding achieves against the raw keys, with
    its own one-byte prefix-length model, which is what the compression
    experiment reports. *)

type stats = {
  raw_bytes : int;
  compressed_bytes : int;
}

val ratio : stats -> float
(** [compressed / raw]; [1.0] for empty input. *)

val front_code : Key.t array -> stats
(** Test hook: savings of front-coding a sorted key array: each key after the
    first costs one prefix-length byte plus its distinct suffix. *)

val btree_stats : Btree.t -> stats
(** Aggregate front-coding savings over every leaf block's keys. *)
