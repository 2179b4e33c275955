(* Prime fields of at most 254 bits: flat 4x64-bit limbs in 32-byte Bytes.

   An element is a Bytes.t of exactly 32 bytes: four little-endian uint64
   limbs, value < p, Montgomery form (x*R mod p, R = 2^256).  A kernel
   buffer is one flat Bytes.t of n*32 bytes — n elements laid out
   contiguously, so batch loops (FFT butterflies, batch-affine bucket
   reduction) walk a single cache-friendly allocation instead of chasing
   one heap array per element.

   Arithmetic runs in the C stubs of fp64_stubs.c (unsigned __int128
   CIOS), which read and write the limbs little-endian on any host.
   Montgomery constants are derived from the decimal modulus with
   Zkdet_num.Nat — no transcribed magic numbers.  test_field checks the
   kernel against a reference field written directly over Nat.

   Derived operations (inv, sqrt, random, codecs, ...) come from
   Field_derived. *)

module Nat = Zkdet_num.Nat

(* The C entry points take (prm, dst, doff, a, aoff, b, boff) with byte
   offsets; prm packs p[0..3] and n0 = -p^-1 mod 2^64.  [@@noalloc] is
   sound: the stubs never touch the OCaml heap or release the lock. *)
external c_mul :
  Bytes.t -> Bytes.t -> int -> Bytes.t -> int -> Bytes.t -> int -> unit
  = "zkdet_fp64_mul_bc" "zkdet_fp64_mul"
[@@noalloc]

external c_add :
  Bytes.t -> Bytes.t -> int -> Bytes.t -> int -> Bytes.t -> int -> unit
  = "zkdet_fp64_add_bc" "zkdet_fp64_add"
[@@noalloc]

external c_sub :
  Bytes.t -> Bytes.t -> int -> Bytes.t -> int -> Bytes.t -> int -> unit
  = "zkdet_fp64_sub_bc" "zkdet_fp64_sub"
[@@noalloc]

external c_butterfly :
  Bytes.t -> Bytes.t -> int -> int -> Bytes.t -> int -> unit
  = "zkdet_fp64_butterfly_bc" "zkdet_fp64_butterfly"
[@@noalloc]

module Make (M : Field_intf.MODULUS) : Field_intf.S = struct
  module Core = struct
    let modulus = Nat.of_decimal M.modulus_decimal
    let num_bits = Nat.num_bits modulus
    let num_bytes = (num_bits + 7) / 8

    (* The interleaved no-carry CIOS reduction and the carry-free modular
       add both require headroom in the top limb. *)
    let () =
      if num_bits > 254 then
        invalid_arg "Fp64.Make: modulus must be at most 254 bits";
      if not (Nat.testbit modulus 0) then
        invalid_arg "Fp64.Make: modulus must be odd"

    let el_bytes = 32

    (* Little-endian 32-byte image of a Nat < 2^256, and back. *)
    let le32_of_nat n =
      let be = Nat.to_bytes_be ~length:el_bytes n in
      Bytes.init el_bytes (fun i -> be.[el_bytes - 1 - i])

    let nat_of_le32 b =
      Nat.of_bytes_be (String.init el_bytes (fun i -> Bytes.get b (el_bytes - 1 - i)))

    let p_bytes = le32_of_nat modulus
    let r2_bytes =
      let r_nat = Nat.shift_left Nat.one 256 in
      le32_of_nat (Nat.rem (Nat.mul r_nat r_nat) modulus)
    let one_std = le32_of_nat Nat.one

    (* n0 = -p^-1 mod 2^64 by Newton iteration on wrapping int64. *)
    let n0 =
      let p0 = Bytes.get_int64_le p_bytes 0 in
      let inv = ref 1L in
      for _ = 1 to 6 do
        inv := Int64.mul !inv (Int64.sub 2L (Int64.mul p0 !inv))
      done;
      Int64.neg !inv

    (* Parameter block handed to the C stubs. *)
    let prm =
      let b = Bytes.create 40 in
      Bytes.blit p_bytes 0 b 0 el_bytes;
      Bytes.set_int64_le b el_bytes n0;
      b

    let mul_off dst doff a aoff b boff = c_mul prm dst doff a aoff b boff
    let add_off dst doff a aoff b boff = c_add prm dst doff a aoff b boff
    let sub_off dst doff a aoff b boff = c_sub prm dst doff a aoff b boff
    let butterfly_off b ioff joff w woff = c_butterfly prm b ioff joff w woff

    type t = Bytes.t (* exactly 32 bytes, value < p, Montgomery form *)

    let zero = Bytes.make el_bytes '\000'

    (* equal/is_zero: the representation is canonical (< p), so limb
       comparison is value comparison. *)
    let equal (a : t) (b : t) = Bytes.equal a b
    let is_zero (a : t) = Bytes.equal a zero

    let of_nat n =
      let std = le32_of_nat (Nat.rem n modulus) in
      let r = Bytes.create el_bytes in
      mul_off r 0 std 0 r2_bytes 0;
      r

    let to_nat (a : t) =
      let std = Bytes.create el_bytes in
      mul_off std 0 a 0 one_std 0;
      nat_of_le32 std

    let one = of_nat Nat.one

    let mul (a : t) (b : t) : t =
      let r = Bytes.create el_bytes in
      mul_off r 0 a 0 b 0;
      r

    let sqr a = mul a a

    let add (a : t) (b : t) : t =
      let r = Bytes.create el_bytes in
      add_off r 0 a 0 b 0;
      r

    let sub (a : t) (b : t) : t =
      let r = Bytes.create el_bytes in
      sub_off r 0 a 0 b 0;
      r

    let double a = add a a
    let neg a = if is_zero a then a else sub zero a

    type buf = Bytes.t (* n contiguous 32-byte elements *)

    let buf_create n = Bytes.make (n * el_bytes) '\000'
    let buf_length (b : buf) = Bytes.length b / el_bytes
    let buf_get (b : buf) i : t = Bytes.sub b (i * el_bytes) el_bytes
    let buf_set (b : buf) i (v : t) = Bytes.blit v 0 b (i * el_bytes) el_bytes

    let buf_blit (src : buf) spos (dst : buf) dpos len =
      Bytes.blit src (spos * el_bytes) dst (dpos * el_bytes) (len * el_bytes)

    let buf_of_array (a : t array) : buf =
      let b = buf_create (Array.length a) in
      Array.iteri (fun i v -> buf_set b i v) a;
      b

    let buf_to_array (b : buf) : t array =
      Array.init (buf_length b) (buf_get b)

    let buf_mul (d : buf) i (a : buf) j (b : buf) k =
      mul_off d (i * el_bytes) a (j * el_bytes) b (k * el_bytes)

    let buf_sqr (d : buf) i (a : buf) j =
      mul_off d (i * el_bytes) a (j * el_bytes) a (j * el_bytes)

    let buf_add (d : buf) i (a : buf) j (b : buf) k =
      add_off d (i * el_bytes) a (j * el_bytes) b (k * el_bytes)

    let buf_sub (d : buf) i (a : buf) j (b : buf) k =
      sub_off d (i * el_bytes) a (j * el_bytes) b (k * el_bytes)

    let buf_double (d : buf) i (a : buf) j =
      add_off d (i * el_bytes) a (j * el_bytes) a (j * el_bytes)

    let buf_is_zero_off (b : buf) off =
      Int64.equal (Bytes.get_int64_le b off) 0L
      && Int64.equal (Bytes.get_int64_le b (off + 8)) 0L
      && Int64.equal (Bytes.get_int64_le b (off + 16)) 0L
      && Int64.equal (Bytes.get_int64_le b (off + 24)) 0L

    let buf_is_zero (b : buf) i = buf_is_zero_off b (i * el_bytes)

    let buf_neg (d : buf) i (a : buf) j =
      if buf_is_zero_off a (j * el_bytes) then
        Bytes.fill d (i * el_bytes) el_bytes '\000'
      else sub_off d (i * el_bytes) zero 0 a (j * el_bytes)

    (* Unrolled: a local recursive helper would allocate a closure per
       call, and the MSM bucket reduction calls this once per pair. *)
    let buf_equal (a : buf) i (b : buf) j =
      let ao = i * el_bytes and bo = j * el_bytes in
      Int64.equal (Bytes.get_int64_le a ao) (Bytes.get_int64_le b bo)
      && Int64.equal (Bytes.get_int64_le a (ao + 8)) (Bytes.get_int64_le b (bo + 8))
      && Int64.equal
           (Bytes.get_int64_le a (ao + 16))
           (Bytes.get_int64_le b (bo + 16))
      && Int64.equal
           (Bytes.get_int64_le a (ao + 24))
           (Bytes.get_int64_le b (bo + 24))

    let buf_butterfly (b : buf) i j (w : buf) k =
      butterfly_off b (i * el_bytes) (j * el_bytes) w (k * el_bytes)
  end

  include Core
  include Field_derived.Make (Core)
end
