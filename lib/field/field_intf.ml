(** Signatures of prime fields and their kernel buffer layer.

    {!Fp64.Make} implements {!S}: flat 4x64-bit limbs packed little-endian
    into 32-byte [Bytes], with unrolled 4-limb CIOS Montgomery
    multiplication in a C stub.  The field tests check it against a
    reference field written directly over {!Zkdet_num.Nat}.

    Everything above the field layer is representation-agnostic: wire
    encodings go through [to_bytes_be]/[of_bytes_be_canonical] (canonical
    big-endian integers), so proof bytes, state hashes and golden vectors
    do not depend on the limb layout. *)

module type MODULUS = sig
  val modulus_decimal : string
end

(** The representation-specific core a field implementation must provide.
    All remaining operations of {!S} (inversion chains, Tonelli-Shanks,
    codecs and the [Random.State] consumption pattern of [random], which
    blinding factors and SRS generation depend on) are derived from it by
    {!Field_derived.Make}. *)
module type CORE = sig
  type t

  val modulus : Zkdet_num.Nat.t
  val num_bits : int
  val num_bytes : int

  val zero : t
  val one : t

  val equal : t -> t -> bool
  val is_zero : t -> bool

  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val mul : t -> t -> t
  val sqr : t -> t
  val double : t -> t

  val of_nat : Zkdet_num.Nat.t -> t
  val to_nat : t -> Zkdet_num.Nat.t

  (** {2 Flat kernel buffers}

      [buf] is the primary storage story for batch inner loops: a flat,
      contiguous block of [n] field elements addressed by index — a
      single [Bytes] of [n * 32] bytes (cache friendly, no per-element
      boxing).  Every operand of every operation is a [(buf, index)]
      pair, so no op allocates or exposes an aliasing intermediate
      value. *)

  type buf

  val buf_create : int -> buf
  (** [buf_create n] is a buffer of [n] cells, all zero. *)

  val buf_length : buf -> int
  val buf_get : buf -> int -> t
  (** [buf_get b i] copies cell [i] out as a fresh field element. *)

  val buf_set : buf -> int -> t -> unit

  val buf_blit : buf -> int -> buf -> int -> int -> unit
  (** [buf_blit src spos dst dpos len] copies [len] cells; [src] and
      [dst] may be the same buffer (overlaps handled correctly). *)

  val buf_of_array : t array -> buf
  val buf_to_array : buf -> t array

  val buf_mul : buf -> int -> buf -> int -> buf -> int -> unit
  (** [buf_mul dst i a j b k] sets [dst[i] <- a[j] * b[k]].  Any operands
      may alias (including [dst] with [a]/[b]). *)

  val buf_sqr : buf -> int -> buf -> int -> unit
  val buf_add : buf -> int -> buf -> int -> buf -> int -> unit
  val buf_sub : buf -> int -> buf -> int -> buf -> int -> unit
  val buf_double : buf -> int -> buf -> int -> unit
  val buf_neg : buf -> int -> buf -> int -> unit
  val buf_is_zero : buf -> int -> bool
  val buf_equal : buf -> int -> buf -> int -> bool

  val buf_butterfly : buf -> int -> int -> buf -> int -> unit
  (** [buf_butterfly b i j w k] is the fused radix-2 FFT butterfly:
      with [u = b[i]] and [v = b[j] * w[k]], sets [b[i] <- u + v] and
      [b[j] <- u - v].  Requires [i <> j]. *)
end

(** Full field signature: {!CORE} plus the derived operations. *)
module type S = sig
  include CORE

  val of_int : int -> t
  (** [of_int n] maps any native int into the field (negatives wrap). *)

  val of_string : string -> t
  (** Decimal string, reduced mod the modulus. *)

  val to_string : t -> string

  val of_bytes_be : string -> t
  (** Big-endian bytes, reduced mod the modulus. *)

  val to_bytes_be : t -> string
  (** Fixed-width ([num_bytes]) big-endian encoding. *)

  val of_bytes_be_canonical : string -> (t, string) result
  (** Strict decoder for untrusted input: requires exactly [num_bytes]
      big-endian bytes denoting a value [< modulus].  Unlike
      {!of_bytes_be} it never reduces. *)

  val codec : t Zkdet_codec.Codec.t
  (** Canonical wire codec: fixed-width big-endian via
      {!to_bytes_be} / {!of_bytes_be_canonical}.  Deliberately
      representation-independent: the bytes do not depend on the limb
      layout. *)

  val is_one : t -> bool

  val inv : t -> t
  (** Multiplicative inverse. Raises [Division_by_zero] on zero. *)

  val div : t -> t -> t

  val batch_inv : t array -> t array
  (** Invert many elements with one field inversion (Montgomery's trick).
      Raises [Division_by_zero] if any element is zero. *)

  val batch_inv0 : t array -> t array
  (** Like {!batch_inv}, but zero entries are skipped and map to zero —
      batch users treat zero as an "absent" marker rather than an error. *)

  val buf_batch_inv0 : scratch:buf -> buf -> int -> unit
  (** [buf_batch_inv0 ~scratch buf n] replaces the first [n] cells of
      [buf] by their inverses (zero cells stay zero) with a single true
      inversion.  [scratch] must have at least [n + 2] cells. *)

  val pow : t -> int -> t
  (** [pow x e] for a native-int exponent [e >= 0]. *)

  val pow_nat : t -> Zkdet_num.Nat.t -> t

  val is_square : t -> bool
  val sqrt : t -> t option

  val two_adicity : int
  (** Largest [s] with [2^s] dividing [modulus - 1]. *)

  val two_adic_root : t
  (** A generator of the multiplicative subgroup of order
      [2^two_adicity]. *)

  val random : Random.State.t -> t
  (** Uniform field element.  The [Random.State] consumption pattern is
      part of the interface contract (one draw per 26-bit {!Zkdet_num.Nat}
      limb with rejection sampling): seeded randomness — SRS generation,
      proof blinding — depends on it, and the field tests pin a digest of
      the stream. *)

  val pp : Format.formatter -> t -> unit

  val compare : t -> t -> int
end
