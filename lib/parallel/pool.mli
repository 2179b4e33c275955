(** Deterministic fork-join runtime over OCaml 5 domains.

    A single fixed pool of worker domains serves every parallel construct
    in the repository. The pool size counts the calling domain, so [1]
    means fully sequential execution. It is read from the
    [ZKDET_DOMAINS] environment variable on first use, defaulting to
    [Domain.recommended_domain_count () - 1] (at least 1).

    Determinism: chunk boundaries depend only on the index range, chunk
    results are combined left-to-right on the calling domain, and the
    sequential path executes the same chunk decomposition. Kernels made of
    exact arithmetic on canonical representations produce bit-identical
    results at any pool size.

    Constructs must be issued from a single orchestrating domain; nested
    calls from inside pool workers run inline, sequentially. *)

val num_domains : unit -> int
(** Current pool size (total domains, including the caller). *)

val set_num_domains : int -> unit
(** Resize the pool (tearing down live workers if the size changes).
    Raises [Invalid_argument] below 1. *)

val with_domains : int -> (unit -> 'a) -> 'a
(** [with_domains n f] runs [f] with the pool resized to [n], restoring
    the previous size afterwards (also on exception). *)

val shutdown : unit -> unit
(** Join all worker domains. The pool respawns lazily on next use. *)

val parallel_for : ?chunks:int -> int -> int -> (int -> unit) -> unit
(** [parallel_for lo hi f] runs [f i] for [lo <= i < hi]. Iterations must
    be independent (no two may write the same location). *)

val parallel_for_chunks :
  ?chunks:int -> int -> int -> (lo:int -> hi:int -> unit) -> unit
(** Like {!parallel_for} but hands each task a [\[lo, hi)] sub-range, for
    bodies that carry per-chunk state (e.g. a running power of omega).
    Chunk boundaries depend only on the range and [chunks]. *)

val parallel_init : int -> (int -> 'a) -> 'a array
(** Parallel [Array.init]. All indices are dispatched in one batch (none
    runs on the caller ahead of it); [f] runs exactly once per index. *)

val parallel_map_array : ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map], dispatched like {!parallel_init}. *)

val parallel_reduce :
  ?chunks:int ->
  neutral:'b ->
  combine:('b -> 'b -> 'b) ->
  int ->
  int ->
  (int -> 'b) ->
  'b
(** [parallel_reduce ~neutral ~combine lo hi f] folds [f i] over the range
    in fixed-size chunks: each chunk folds left-to-right from [neutral],
    and the per-chunk results are combined left-to-right in chunk order.
    [combine] must be associative with [neutral] as identity for the
    result to equal the plain sequential fold. *)
