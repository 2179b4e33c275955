(* Representation-independent field operations, derived once from
   Field_intf.CORE: exponentiation chains, Tonelli-Shanks square roots
   (including the non-residue search), batch inversion, byte codecs, and
   the Random.State consumption pattern of [random].  Proof bytes and
   golden vectors depend on these algorithms, not on the limb layout, so
   they live here rather than next to the kernel. *)

module Nat = Zkdet_num.Nat

module Make (C : Field_intf.CORE) = struct
  open C

  let is_one a = equal a one

  let of_int n =
    if n >= 0 then of_nat (Nat.of_int n)
    else sub zero (of_nat (Nat.of_int (-n)))

  let of_string s = of_nat (Nat.of_decimal s)
  let to_string a = Nat.to_decimal (to_nat a)
  let of_bytes_be s = of_nat (Nat.of_bytes_be s)
  let to_bytes_be a = Nat.to_bytes_be ~length:num_bytes (to_nat a)

  let of_bytes_be_canonical s =
    if String.length s <> num_bytes then
      Error
        (Printf.sprintf "field element must be %d bytes, got %d" num_bytes
           (String.length s))
    else
      let n = Nat.of_bytes_be s in
      if Nat.compare n modulus >= 0 then
        Error "field element not canonical (>= modulus)"
      else Ok (of_nat n)

  let codec =
    Zkdet_codec.Codec.(
      with_context "field"
        (conv to_bytes_be of_bytes_be_canonical (bytes_fixed num_bytes)))

  let pow_nat x e =
    let nbits = Nat.num_bits e in
    if nbits = 0 then one
    else begin
      let acc = ref one in
      for i = nbits - 1 downto 0 do
        acc := sqr !acc;
        if Nat.testbit e i then acc := mul !acc x
      done;
      !acc
    end

  let pow x e =
    if e < 0 then invalid_arg "Field.pow: negative exponent";
    pow_nat x (Nat.of_int e)

  let p_minus_2 = Nat.sub modulus Nat.two

  let inv a =
    if is_zero a then raise Division_by_zero;
    pow_nat a p_minus_2

  let div a b = mul a (inv b)

  (* Montgomery's batch-inversion trick: n inversions for the price of one
     plus 3n multiplications. Zero entries raise. *)
  let batch_inv (xs : t array) : t array =
    let n = Array.length xs in
    if n = 0 then [||]
    else begin
      let prefix = Array.make n one in
      let acc = ref one in
      for i = 0 to n - 1 do
        prefix.(i) <- !acc;
        acc := mul !acc xs.(i)
      done;
      let inv_acc = ref (inv !acc) in
      let out = Array.make n one in
      for i = n - 1 downto 0 do
        out.(i) <- mul !inv_acc prefix.(i);
        inv_acc := mul !inv_acc xs.(i)
      done;
      out
    end

  (* Like batch_inv, but zero entries pass through as zero instead of
     raising — batched slope computations (the curve layer's batch-affine
     adders) use zero as an "absent / annihilated" marker. *)
  let batch_inv0 (xs : t array) : t array =
    let n = Array.length xs in
    if n = 0 then [||]
    else begin
      let prefix = Array.make n one in
      let acc = ref one in
      for i = 0 to n - 1 do
        prefix.(i) <- !acc;
        if not (is_zero xs.(i)) then acc := mul !acc xs.(i)
      done;
      let inv_acc = ref (inv !acc) in
      let out = Array.make n zero in
      for i = n - 1 downto 0 do
        if not (is_zero xs.(i)) then begin
          out.(i) <- mul !inv_acc prefix.(i);
          inv_acc := mul !inv_acc xs.(i)
        end
      done;
      out
    end

  let buf_batch_inv0 ~(scratch : buf) (b : buf) (n : int) : unit =
    if n > 0 then begin
      (* scratch cell i holds the prefix product of nonzero cells before i;
         cell n the running product, cell n+1 the running inverse. *)
      buf_set scratch n one;
      for i = 0 to n - 1 do
        buf_blit scratch n scratch i 1;
        if not (buf_is_zero b i) then buf_mul scratch n scratch n b i
      done;
      buf_set scratch (n + 1) (inv (buf_get scratch n));
      for i = n - 1 downto 0 do
        if not (buf_is_zero b i) then begin
          buf_mul scratch n scratch (n + 1) scratch i;
          (* Fold the original cell into the running inverse before the
             result overwrites it. *)
          buf_mul scratch (n + 1) scratch (n + 1) b i;
          buf_blit scratch n b i 1
        end
      done
    end

  let p_minus_1_half = Nat.shift_right (Nat.sub modulus Nat.one) 1

  let is_square a = is_zero a || is_one (pow_nat a p_minus_1_half)

  (* p - 1 = 2^two_adicity * odd_part. *)
  let two_adicity, odd_part =
    let rec go s q =
      if Nat.testbit q 0 then (s, q) else go (s + 1) (Nat.shift_right q 1)
    in
    go 0 (Nat.sub modulus Nat.one)

  (* c^odd_part for the least non-square c >= 2: c^((p-1)/2) = -1, so
     its order is exactly 2^two_adicity. *)
  let two_adic_root =
    let rec find c =
      let x = of_int c in
      if (not (is_zero x)) && not (is_square x) then pow_nat x odd_part
      else find (c + 1)
    in
    find 2

  (* Tonelli-Shanks. *)
  let sqrt a =
    if is_zero a then Some zero
    else if not (is_square a) then None
    else begin
      let m = ref two_adicity in
      let c = ref two_adic_root in
      let t = ref (pow_nat a odd_part) in
      let r = ref (pow_nat a (Nat.shift_right (Nat.add odd_part Nat.one) 1)) in
      let rec loop () =
        if is_one !t then Some !r
        else begin
          (* Least i with t^(2^i) = 1. *)
          let i = ref 0 in
          let t2 = ref !t in
          while not (is_one !t2) do
            t2 := sqr !t2;
            incr i
          done;
          let b = ref !c in
          for _ = 1 to !m - !i - 1 do
            b := sqr !b
          done;
          m := !i;
          c := sqr !b;
          t := mul !t !c;
          r := mul !r !b;
          loop ()
        end
      in
      loop ()
    end

  (* One draw per 26-bit Nat limb with rejection sampling.  The draw width
     is tied to Nat.limb_bits, NOT to the kernel's 64-bit limbs: that is
     the stream every seeded SRS and proof has been made from. *)
  let random st =
    let limb_bits = Nat.limb_bits in
    let nlimbs = (num_bits + limb_bits - 1) / limb_bits in
    let rec go () =
      let n =
        Nat.of_limbs
          (Array.init nlimbs (fun i ->
               let bits =
                 if i = nlimbs - 1 then num_bits - ((nlimbs - 1) * limb_bits)
                 else limb_bits
               in
               Random.State.int st (1 lsl bits)))
      in
      if Nat.compare n modulus >= 0 then go () else of_nat n
    in
    go ()

  let compare a b = Nat.compare (to_nat a) (to_nat b)
  let pp fmt a = Format.pp_print_string fmt (to_string a)
end
