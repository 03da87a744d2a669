type t = string

let empty = ""

(* Varints are 7 bits a byte, low bits first, as in the audit trail. The
   encoding is canonical, so an entry's next field starts [varint_size v]
   bytes after a value [v] that was read. Lengths below 128 take one byte;
   the inlined fast paths cover them. *)
let rec long_varint_size n = if n < 0x80 then 1 else 1 + long_varint_size (n lsr 7)

let[@inline] varint_size n = if n < 0x80 then 1 else long_varint_size n

let rec long_put_varint buffer pos n =
  if n < 0x80 then begin
    Bytes.set buffer pos (Char.unsafe_chr n);
    pos + 1
  end
  else begin
    Bytes.set buffer pos (Char.unsafe_chr (n land 0x7f lor 0x80));
    long_put_varint buffer (pos + 1) (n lsr 7)
  end

(* Writes [n] at [pos]; returns where the next field goes. *)
let[@inline] put_varint buffer pos n =
  if n < 0x80 then begin
    Bytes.set buffer pos (Char.unsafe_chr n);
    pos + 1
  end
  else long_put_varint buffer pos n

let rec long_varint t pos shift acc =
  let byte = Char.code t.[pos] in
  let acc = acc lor ((byte land 0x7f) lsl shift) in
  if byte < 0x80 then acc else long_varint t (pos + 1) (shift + 7) acc

(* Every [t] is built here, so a position below its length starts a
   well-formed entry and the entry's bytes lie inside [t]. *)
let[@inline] get_varint t pos =
  let byte = Char.code (String.unsafe_get t pos) in
  if byte < 0x80 then byte else long_varint t pos 0 0

(* The entry at [pos]: its shared-prefix length, its suffix length, and
   where its suffix starts. *)
let[@inline] shared_at t pos = get_varint t pos

let[@inline] suffix_length_at t pos shared =
  get_varint t (pos + varint_size shared)

let[@inline] suffix_at pos shared suffix =
  pos + varint_size shared + varint_size suffix

let[@inline] entry_end t pos =
  let shared = shared_at t pos in
  let suffix = suffix_length_at t pos shared in
  suffix_at pos shared suffix + suffix

(* Where the entry [n] entries after the one at [pos] starts
   ([String.length t] just past the last); -1 when [t] ends first. *)
let rec skip t pos n =
  if n = 0 then pos
  else if pos >= String.length t then -1
  else skip t (entry_end t pos) (n - 1)

let count t =
  let rec skip i pos =
    if pos >= String.length t then i else skip (i + 1) (entry_end t pos)
  in
  skip 0 0

let entry_size shared suffix = varint_size shared + varint_size suffix + suffix

(* Writes entry ([shared], [length] bytes of [source] from [from]) at
   [pos]; returns where the next entry goes. Suffixes are mostly a byte or
   two, which a loop copies faster than a blit. *)
let put_entry buffer pos shared source from length =
  let pos = put_varint buffer (put_varint buffer pos shared) length in
  if length <= 8 then
    for j = 0 to length - 1 do
      Bytes.set buffer (pos + j) source.[from + j]
    done
  else Bytes.blit_string source from buffer pos length;
  pos + length

let of_shared keys shared n =
  let size = ref 0 in
  for i = 0 to n - 1 do
    let shared = if i = 0 then 0 else shared.(i) in
    (* Out of range, it would write entries that do not fit their bytes. *)
    if shared < 0 || shared > String.length keys.(i) then
      invalid_arg "Packed_keys.of_shared";
    size := !size + entry_size shared (String.length keys.(i) - shared)
  done;
  let buffer = Bytes.create !size in
  let pos = ref 0 in
  for i = 0 to n - 1 do
    let key = keys.(i) and shared = if i = 0 then 0 else shared.(i) in
    pos := put_entry buffer !pos shared key shared (String.length key - shared)
  done;
  Bytes.unsafe_to_string buffer

let of_array keys =
  of_shared keys
    (Array.init (Array.length keys) (fun i ->
         if i = 0 then 0 else Key.common_prefix_length keys.(i - 1) keys.(i)))
    (Array.length keys)

(* How many of the [n] bytes of [t] from [pos] equal [key]'s from [from]:
   eight bytes a step while both sides have them, then byte by byte. *)
let rec matching t pos n key from j =
  if
    j + 8 <= n
    && from + j + 8 <= String.length key
    && String.get_int64_ne t (pos + j) = String.get_int64_ne key (from + j)
  then matching t pos n key from (j + 8)
  else matching_bytes t pos n key from j

and matching_bytes t pos n key from j =
  if
    j < n
    && from + j < String.length key
    && String.unsafe_get t (pos + j) = String.unsafe_get key (from + j)
  then matching_bytes t pos n key from (j + 1)
  else j

(* Entry [i] starts at [pos]; every key before it is below [key], and the
   previous one shares exactly [common] bytes with it. An entry sharing
   more than [common] bytes with its predecessor sits below [key] too, and
   one sharing fewer sits above; only an entry sharing exactly [common]
   needs its suffix compared. The scan ends in [stop found i pos common]:
   key [i], at [pos], equals [key] or is the first above it, and [common]
   is what [key] shares with key [i - 1]. *)
let rec scan t key i pos common stop =
  if pos >= String.length t then stop false i pos common
  else begin
    let shared = shared_at t pos in
    let suffix = suffix_length_at t pos shared in
    let start = suffix_at pos shared suffix in
    if shared > common then scan t key (i + 1) (start + suffix) common stop
    else if shared < common then stop false i pos common
    else begin
      let j = matching t start suffix key common 0 in
      let matched = common + j in
      if j = suffix then
        if matched = String.length key then stop true i pos common
        else scan t key (i + 1) (start + suffix) matched stop
      else if matched = String.length key then stop false i pos common
      else if
        Char.code (String.unsafe_get t (start + j))
        < Char.code (String.unsafe_get key matched)
      then scan t key (i + 1) (start + suffix) matched stop
      else stop false i pos common
    end
  end

let rank found i _ _ = if found then i else -(i + 1)

let search t key = scan t key 0 0 0 rank

(* Key [index], rebuilt from the first entry in one buffer. *)
let get t index =
  let rec walk i pos buffer =
    if pos >= String.length t || index < 0 then invalid_arg "Packed_keys.get"
    else begin
      let shared = shared_at t pos in
      let suffix = suffix_length_at t pos shared in
      let start = suffix_at pos shared suffix in
      let length = shared + suffix in
      let buffer =
        if length <= Bytes.length buffer then buffer
        else begin
          let grown = Bytes.create (Int.max length (2 * Bytes.length buffer)) in
          Bytes.blit buffer 0 grown 0 shared;
          grown
        end
      in
      Bytes.blit_string t start buffer shared suffix;
      if i = index then Bytes.sub_string buffer 0 length
      else walk (i + 1) (start + suffix) buffer
    end
  in
  walk 0 0 (Bytes.create 16)

let iteri f t =
  let rec walk i pos previous =
    if pos < String.length t then begin
      let shared = shared_at t pos in
      let suffix = suffix_length_at t pos shared in
      let start = suffix_at pos shared suffix in
      let key = Bytes.create (shared + suffix) in
      Bytes.blit_string previous 0 key 0 shared;
      Bytes.blit_string t start key shared suffix;
      let key = Bytes.unsafe_to_string key in
      f i key;
      walk (i + 1) (start + suffix) key
    end
  in
  walk 0 0 ""

let to_array t =
  let keys = Array.make (count t) Key.min_key in
  iteri (fun i key -> keys.(i) <- key) t;
  keys

(* ------------------------------------------------------------------ *)
(* Edits. Each copies the untouched entries byte for byte and re-encodes
   at most the entries next to the edit, so the result is the canonical
   encoding of the edited key sequence. *)

(* [t]'s bytes [0, before), then the [middle] entries, then [t]'s bytes
   from [after]. *)
let splice t ~before ~after ~size middle =
  let tail = String.length t - after in
  let buffer = Bytes.create (before + size + tail) in
  Bytes.blit_string t 0 buffer 0 before;
  let pos = middle buffer before in
  Bytes.blit_string t after buffer pos tail;
  Bytes.unsafe_to_string buffer

(* lcp of [key] with the key at [pos], given [common], its lcp with the
   key before. *)
let common_with t key pos common =
  let shared = shared_at t pos in
  if shared <> common then Int.min shared common
  else
    let suffix = suffix_length_at t pos shared in
    common + matching t (suffix_at pos shared suffix) suffix key common 0

(* [key] spliced in at [pos], where entry [i] starts, sharing [below]
   bytes with key [i - 1]. *)
let splice_in t pos below key =
  let new_entry = entry_size below (String.length key - below) in
  if pos >= String.length t then
    splice t ~before:pos ~after:pos ~size:new_entry (fun buffer at ->
        put_entry buffer at below key below (String.length key - below))
  else begin
    (* The key after gains the bytes it shares with [key]: at least the
       ones it shared with its old predecessor. *)
    let shared = shared_at t pos in
    let suffix = suffix_length_at t pos shared in
    let start = suffix_at pos shared suffix in
    let above = common_with t key pos below in
    let gained = above - shared in
    splice t ~before:pos ~after:(start + suffix)
      ~size:(new_entry + entry_size above (suffix - gained))
      (fun buffer at ->
        let at = put_entry buffer at below key below (String.length key - below) in
        put_entry buffer at above t (start + gained) (suffix - gained))
  end

let add t key =
  scan t key 0 0 0 (fun found i pos below ->
      if found then Error i else Ok (i, splice_in t pos below key))

let remove t index =
  let pos = if index < 0 then -1 else skip t 0 index in
  if pos < 0 || pos >= String.length t then invalid_arg "Packed_keys.remove";
  let next = entry_end t pos in
  if next >= String.length t then String.sub t 0 pos
  else begin
    let shared = shared_at t pos in
    let suffix = suffix_length_at t pos shared in
    let start = suffix_at pos shared suffix in
    let next_shared = shared_at t next in
    if next_shared <= shared then
      (* The next key shares no more with the removed key's predecessor
         than it did with the removed key: its entry stands. *)
      splice t ~before:pos ~after:next ~size:0 (fun _ at -> at)
    else begin
      (* It shared [next_shared - shared] bytes the removed key had beyond
         its own shared prefix: they move into the next key's suffix. *)
      let next_suffix = suffix_length_at t next next_shared in
      let next_start = suffix_at next next_shared next_suffix in
      let moved = next_shared - shared in
      splice t ~before:pos ~after:(next_start + next_suffix)
        ~size:(entry_size shared (moved + next_suffix))
        (fun buffer at ->
          let at = put_varint buffer (put_varint buffer at shared) (moved + next_suffix) in
          Bytes.blit_string t start buffer at moved;
          Bytes.blit_string t next_start buffer (at + moved) next_suffix;
          at + moved + next_suffix)
    end
  end

let sub t first length =
  let from = if first < 0 || length < 0 then -1 else skip t 0 first in
  let upto = if from < 0 then -1 else skip t from length in
  if upto < 0 then invalid_arg "Packed_keys.sub";
  if first = 0 || length = 0 then String.sub t from (upto - from)
  else begin
    (* The first key is written whole; the rest keep their entries. *)
    let key = get t first in
    let rest = entry_end t from in
    let head = entry_size 0 (String.length key) in
    let buffer = Bytes.create (head + upto - rest) in
    let at = put_entry buffer 0 0 key 0 (String.length key) in
    Bytes.blit_string t rest buffer at (upto - rest);
    Bytes.unsafe_to_string buffer
  end
