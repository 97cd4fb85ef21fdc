//! The exact decimal → `f64` conversion of [`CsvStreamSource`]'s one-pass
//! line parse.
//!
//! [`parse`] reads `-?digits[.digits][(e|E)[+|-]digits]` at the start of a
//! byte slice. It accumulates the significant digits eight at a time
//! (SWAR) and converts them with the Eisel–Lemire algorithm (Lemire,
//! "Number Parsing at a Gigabyte per Second", 2021,
//! <https://arxiv.org/abs/2101.11408>) over [`POW5`], a table of 128-bit
//! truncated powers of five. Where it returns a value, the value has the
//! bits `str::parse::<f64>` gives the same text, since both round
//! correctly to nearest, ties to even. It returns `None` for whatever it
//! cannot decide: another syntax (a `+` sign, a bare `.5` or `5.`, `inf`,
//! `NaN`), more than 19 significant digits, or a product too close to a
//! halfway point for 128 bits to settle; the caller then takes the
//! `str::parse` path.
//!
//! [`CsvStreamSource`]: super::CsvStreamSource

/// Smallest power of ten [`POW5`] holds: below it, 19 digits round to
/// zero.
const MIN_Q: i64 = -342;
/// Largest power of ten [`POW5`] holds: above it, any nonzero digits round
/// to infinity.
const MAX_Q: i64 = 308;
/// The bits of `f64::INFINITY`.
const INFINITY_BITS: u64 = 0x7FF << 52;

/// Parses the decimal number at the start of `s` and returns its value and
/// how many bytes it took. Returns `None` if `s` does not start with
/// `-?digits[.digits]`, if a `.` or an exponent marker has no digits after
/// it, or if [`eisel_lemire`] cannot decide the value; the byte after the
/// number is left for the caller to judge. Values out of range round to
/// zero or infinity, as in `str::parse`.
pub(super) fn parse(s: &[u8]) -> Option<(f64, usize)> {
    let negative = s.first() == Some(&b'-');
    let start = usize::from(negative);
    let mut w = 0u64;
    let int_end = digits(s, start, &mut w);
    if int_end == start {
        return None;
    }
    let mut at = int_end;
    let mut q = 0i64;
    if s.get(at) == Some(&b'.') {
        at = digits(s, int_end + 1, &mut w);
        if at == int_end + 1 {
            return None;
        }
        q = -((at - int_end - 1) as i64);
    }
    // `w` wrapped if the mantissa has more than 19 digits, unless the
    // extra ones are leading zeros.
    let count = at - start - usize::from(at > int_end);
    if count > 19 && significant_digits(&s[start..at]) > 19 {
        return None;
    }
    if matches!(s.get(at), Some(b'e' | b'E')) {
        let (exp, end) = exponent(s, at + 1)?;
        q += exp;
        at = end;
    }
    let bits = eisel_lemire(w, q)?;
    Some((f64::from_bits(bits | u64::from(negative) << 63), at))
}

/// Accumulates the digits of `s` from `at` on into `w`, eight at a time
/// while eight are left, and returns where they end. `w` wraps past 19
/// digits.
fn digits(s: &[u8], mut at: usize, w: &mut u64) -> usize {
    while let Some(word) = s.get(at..at + 8) {
        let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        if !eight_digits(word) {
            break;
        }
        *w = w.wrapping_mul(100_000_000).wrapping_add(parse_eight(word));
        at += 8;
    }
    while let Some(d) = s.get(at).map(|b| b.wrapping_sub(b'0')).filter(|&d| d < 10) {
        *w = w.wrapping_mul(10).wrapping_add(u64::from(d));
        at += 1;
    }
    at
}

/// Whether each byte of a little-endian word is an ASCII digit. A byte
/// below `'0'` borrows in the subtraction and one above `'9'` carries in
/// the addition, either way into its own top bit; the lowest such byte
/// sees no carry or borrow from below, so it is always flagged.
fn eight_digits(word: u64) -> bool {
    let above = word.wrapping_add(0x4646_4646_4646_4646);
    let below = word.wrapping_sub(0x3030_3030_3030_3030);
    (above | below) & 0x8080_8080_8080_8080 == 0
}

/// The value of eight ASCII digits read as a little-endian word (the
/// first digit in the low byte): pairs, then quads, then the whole.
fn parse_eight(word: u64) -> u64 {
    const MASK: u64 = 0x0000_00FF_0000_00FF;
    const MUL1: u64 = 100 + (1_000_000 << 32);
    const MUL2: u64 = 1 + (10_000 << 32);
    let v = word - 0x3030_3030_3030_3030;
    let v = v * 10 + (v >> 8);
    let high = (v & MASK).wrapping_mul(MUL1);
    let low = ((v >> 16) & MASK).wrapping_mul(MUL2);
    u64::from((high.wrapping_add(low) >> 32) as u32)
}

/// Digits in a mantissa (digits and at most one `.`) from its first
/// nonzero one on.
fn significant_digits(mantissa: &[u8]) -> usize {
    let digits = mantissa.iter().filter(|b| b.is_ascii_digit());
    digits.skip_while(|&&b| b == b'0').count()
}

/// The exponent `[+|-]digits` at `s[at..]` and where it ends, or `None`
/// without a digit. As in `str::parse`, digits stop adding to its
/// magnitude once that reaches 65,536, so a mantissa with many leading
/// zeros after its point meets the same clipped exponent there and here.
fn exponent(s: &[u8], mut at: usize) -> Option<(i64, usize)> {
    let negative = s.get(at) == Some(&b'-');
    if negative || s.get(at) == Some(&b'+') {
        at += 1;
    }
    let start = at;
    let mut e = 0i64;
    while let Some(d) = s.get(at).map(|b| b.wrapping_sub(b'0')).filter(|&d| d < 10) {
        if e < 1 << 16 {
            e = 10 * e + i64::from(d);
        }
        at += 1;
    }
    (at > start).then_some((if negative { -e } else { e }, at))
}

/// The bits of `w · 10^q` rounded to the nearest `f64`, ties to even, for
/// a nonnegative `w`, or `None` when the 128-bit product cannot tell
/// which way the value rounds (Lemire 2021, §§ 5–9).
fn eisel_lemire(w: u64, q: i64) -> Option<u64> {
    if w == 0 || q < MIN_Q {
        return Some(0);
    }
    if q > MAX_Q {
        return Some(INFINITY_BITS);
    }
    let lz = w.leading_zeros();
    let w = w << lz;
    let pow5 = POW5[(q - MIN_Q) as usize];
    let (mut lo, mut hi) = mul_wide(w, (pow5 >> 64) as u64);
    // The top 55 bits of the product decide the result: 52 stored, the
    // hidden one, the rounding bit and one that may be a leading zero.
    // Only when the bits below them are all ones can the low half of the
    // power carry into them.
    const BELOW: u64 = u64::MAX >> 55;
    if hi & BELOW == BELOW {
        let (_, carry) = mul_wide(w, pow5 as u64);
        lo = lo.wrapping_add(carry);
        if carry > lo {
            hi += 1;
        }
    }
    // The truncated power may still be short of the exact product by one
    // in the low word, unless `5^q` is exact in 128 bits.
    if lo == u64::MAX && !(-27..=55).contains(&q) {
        return None;
    }
    let upper = (hi >> 63) as i32;
    let shift = upper + 9;
    let mut mantissa = hi >> shift;
    let mut exp = binary_exponent(q as i32) + upper - lz as i32 + 1023;
    if exp <= 0 {
        // Subnormal, or zero once shifted past the last subnormal bit.
        if 1 - exp >= 64 {
            return Some(0);
        }
        mantissa >>= 1 - exp;
        mantissa += mantissa & 1;
        mantissa >>= 1;
        // Rounding may carry into the smallest normal exponent.
        return Some(mantissa);
    }
    // An exact halfway product (only possible for q in [-4, 23]) with an
    // even mantissa rounds down, not up.
    if lo <= 1 && (-4..=23).contains(&q) && mantissa & 3 == 1 && mantissa << shift == hi {
        mantissa &= !1;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= 2 << 52 {
        mantissa = 1 << 52;
        exp += 1;
    }
    if exp >= 0x7FF {
        return Some(INFINITY_BITS);
    }
    Some((mantissa & !(1 << 52)) | (exp as u64) << 52)
}

/// `⌊log2(10^q)⌋ + 63`, exact for every `q` in [[`MIN_Q`], [`MAX_Q`]].
fn binary_exponent(q: i32) -> i32 {
    ((q * (152_170 + 65_536)) >> 16) + 63
}

/// The low and high words of `a · b`.
fn mul_wide(a: u64, b: u64) -> (u64, u64) {
    let product = u128::from(a) * u128::from(b);
    (product as u64, (product >> 64) as u64)
}

/// `5^q` for `q` in [[`MIN_Q`], [`MAX_Q`]], scaled by a power of two to
/// have its top bit set and kept to 128 bits: truncated for `q ≥ 0`; for
/// `q < 0`, `⌊2^b / 5^-q⌋ + 1`, truncated to 128 bits, with `b` the bit
/// length of `5^-q` plus 127 for `q ≥ -27` and twice it plus 128 below.
/// The tests recompute every entry with exact integer arithmetic.
#[rustfmt::skip]
static POW5: [u128; (MAX_Q - MIN_Q + 1) as usize] = [
    0xeef453d6923bd65a_113faa2906a13b3f, 0x9558b4661b6565f8_4ac7ca59a424c507,
    0xbaaee17fa23ebf76_5d79bcf00d2df649, 0xe95a99df8ace6f53_f4d82c2c107973dc,
    0x91d8a02bb6c10594_79071b9b8a4be869, 0xb64ec836a47146f9_9748e2826cdee284,
    0xe3e27a444d8d98b7_fd1b1b2308169b25, 0x8e6d8c6ab0787f72_fe30f0f5e50e20f7,
    0xb208ef855c969f4f_bdbd2d335e51a935, 0xde8b2b66b3bc4723_ad2c788035e61382,
    0x8b16fb203055ac76_4c3bcb5021afcc31, 0xaddcb9e83c6b1793_df4abe242a1bbf3d,
    0xd953e8624b85dd78_d71d6dad34a2af0d, 0x87d4713d6f33aa6b_8672648c40e5ad68,
    0xa9c98d8ccb009506_680efdaf511f18c2, 0xd43bf0effdc0ba48_0212bd1b2566def2,
    0x84a57695fe98746d_014bb630f7604b57, 0xa5ced43b7e3e9188_419ea3bd35385e2d,
    0xcf42894a5dce35ea_52064cac828675b9, 0x818995ce7aa0e1b2_7343efebd1940993,
    0xa1ebfb4219491a1f_1014ebe6c5f90bf8, 0xca66fa129f9b60a6_d41a26e077774ef6,
    0xfd00b897478238d0_8920b098955522b4, 0x9e20735e8cb16382_55b46e5f5d5535b0,
    0xc5a890362fddbc62_eb2189f734aa831d, 0xf712b443bbd52b7b_a5e9ec7501d523e4,
    0x9a6bb0aa55653b2d_47b233c92125366e, 0xc1069cd4eabe89f8_999ec0bb696e840a,
    0xf148440a256e2c76_c00670ea43ca250d, 0x96cd2a865764dbca_380406926a5e5728,
    0xbc807527ed3e12bc_c605083704f5ecf2, 0xeba09271e88d976b_f7864a44c633682e,
    0x93445b8731587ea3_7ab3ee6afbe0211d, 0xb8157268fdae9e4c_5960ea05bad82964,
    0xe61acf033d1a45df_6fb92487298e33bd, 0x8fd0c16206306bab_a5d3b6d479f8e056,
    0xb3c4f1ba87bc8696_8f48a4899877186c, 0xe0b62e2929aba83c_331acdabfe94de87,
    0x8c71dcd9ba0b4925_9ff0c08b7f1d0b14, 0xaf8e5410288e1b6f_07ecf0ae5ee44dd9,
    0xdb71e91432b1a24a_c9e82cd9f69d6150, 0x892731ac9faf056e_be311c083a225cd2,
    0xab70fe17c79ac6ca_6dbd630a48aaf406, 0xd64d3d9db981787d_092cbbccdad5b108,
    0x85f0468293f0eb4e_25bbf56008c58ea5, 0xa76c582338ed2621_af2af2b80af6f24e,
    0xd1476e2c07286faa_1af5af660db4aee1, 0x82cca4db847945ca_50d98d9fc890ed4d,
    0xa37fce126597973c_e50ff107bab528a0, 0xcc5fc196fefd7d0c_1e53ed49a96272c8,
    0xff77b1fcbebcdc4f_25e8e89c13bb0f7a, 0x9faacf3df73609b1_77b191618c54e9ac,
    0xc795830d75038c1d_d59df5b9ef6a2417, 0xf97ae3d0d2446f25_4b0573286b44ad1d,
    0x9becce62836ac577_4ee367f9430aec32, 0xc2e801fb244576d5_229c41f793cda73f,
    0xf3a20279ed56d48a_6b43527578c1110f, 0x9845418c345644d6_830a13896b78aaa9,
    0xbe5691ef416bd60c_23cc986bc656d553, 0xedec366b11c6cb8f_2cbfbe86b7ec8aa8,
    0x94b3a202eb1c3f39_7bf7d71432f3d6a9, 0xb9e08a83a5e34f07_daf5ccd93fb0cc53,
    0xe858ad248f5c22c9_d1b3400f8f9cff68, 0x91376c36d99995be_23100809b9c21fa1,
    0xb58547448ffffb2d_abd40a0c2832a78a, 0xe2e69915b3fff9f9_16c90c8f323f516c,
    0x8dd01fad907ffc3b_ae3da7d97f6792e3, 0xb1442798f49ffb4a_99cd11cfdf41779c,
    0xdd95317f31c7fa1d_40405643d711d583, 0x8a7d3eef7f1cfc52_482835ea666b2572,
    0xad1c8eab5ee43b66_da3243650005eecf, 0xd863b256369d4a40_90bed43e40076a82,
    0x873e4f75e2224e68_5a7744a6e804a291, 0xa90de3535aaae202_711515d0a205cb36,
    0xd3515c2831559a83_0d5a5b44ca873e03, 0x8412d9991ed58091_e858790afe9486c2,
    0xa5178fff668ae0b6_626e974dbe39a872, 0xce5d73ff402d98e3_fb0a3d212dc8128f,
    0x80fa687f881c7f8e_7ce66634bc9d0b99, 0xa139029f6a239f72_1c1fffc1ebc44e80,
    0xc987434744ac874e_a327ffb266b56220, 0xfbe9141915d7a922_4bf1ff9f0062baa8,
    0x9d71ac8fada6c9b5_6f773fc3603db4a9, 0xc4ce17b399107c22_cb550fb4384d21d3,
    0xf6019da07f549b2b_7e2a53a146606a48, 0x99c102844f94e0fb_2eda7444cbfc426d,
    0xc0314325637a1939_fa911155fefb5308, 0xf03d93eebc589f88_793555ab7eba27ca,
    0x96267c7535b763b5_4bc1558b2f3458de, 0xbbb01b9283253ca2_9eb1aaedfb016f16,
    0xea9c227723ee8bcb_465e15a979c1cadc, 0x92a1958a7675175f_0bfacd89ec191ec9,
    0xb749faed14125d36_cef980ec671f667b, 0xe51c79a85916f484_82b7e12780e7401a,
    0x8f31cc0937ae58d2_d1b2ecb8b0908810, 0xb2fe3f0b8599ef07_861fa7e6dcb4aa15,
    0xdfbdcece67006ac9_67a791e093e1d49a, 0x8bd6a141006042bd_e0c8bb2c5c6d24e0,
    0xaecc49914078536d_58fae9f773886e18, 0xda7f5bf590966848_af39a475506a899e,
    0x888f99797a5e012d_6d8406c952429603, 0xaab37fd7d8f58178_c8e5087ba6d33b83,
    0xd5605fcdcf32e1d6_fb1e4a9a90880a64, 0x855c3be0a17fcd26_5cf2eea09a55067f,
    0xa6b34ad8c9dfc06f_f42faa48c0ea481e, 0xd0601d8efc57b08b_f13b94daf124da26,
    0x823c12795db6ce57_76c53d08d6b70858, 0xa2cb1717b52481ed_54768c4b0c64ca6e,
    0xcb7ddcdda26da268_a9942f5dcf7dfd09, 0xfe5d54150b090b02_d3f93b35435d7c4c,
    0x9efa548d26e5a6e1_c47bc5014a1a6daf, 0xc6b8e9b0709f109a_359ab6419ca1091b,
    0xf867241c8cc6d4c0_c30163d203c94b62, 0x9b407691d7fc44f8_79e0de63425dcf1d,
    0xc21094364dfb5636_985915fc12f542e4, 0xf294b943e17a2bc4_3e6f5b7b17b2939d,
    0x979cf3ca6cec5b5a_a705992ceecf9c42, 0xbd8430bd08277231_50c6ff782a838353,
    0xece53cec4a314ebd_a4f8bf5635246428, 0x940f4613ae5ed136_871b7795e136be99,
    0xb913179899f68584_28e2557b59846e3f, 0xe757dd7ec07426e5_331aeada2fe589cf,
    0x9096ea6f3848984f_3ff0d2c85def7621, 0xb4bca50b065abe63_0fed077a756b53a9,
    0xe1ebce4dc7f16dfb_d3e8495912c62894, 0x8d3360f09cf6e4bd_64712dd7abbbd95c,
    0xb080392cc4349dec_bd8d794d96aacfb3, 0xdca04777f541c567_ecf0d7a0fc5583a0,
    0x89e42caaf9491b60_f41686c49db57244, 0xac5d37d5b79b6239_311c2875c522ced5,
    0xd77485cb25823ac7_7d633293366b828b, 0x86a8d39ef77164bc_ae5dff9c02033197,
    0xa8530886b54dbdeb_d9f57f830283fdfc, 0xd267caa862a12d66_d072df63c324fd7b,
    0x8380dea93da4bc60_4247cb9e59f71e6d, 0xa46116538d0deb78_52d9be85f074e608,
    0xcd795be870516656_67902e276c921f8b, 0x806bd9714632dff6_00ba1cd8a3db53b6,
    0xa086cfcd97bf97f3_80e8a40eccd228a4, 0xc8a883c0fdaf7df0_6122cd128006b2cd,
    0xfad2a4b13d1b5d6c_796b805720085f81, 0x9cc3a6eec6311a63_cbe3303674053bb0,
    0xc3f490aa77bd60fc_bedbfc4411068a9c, 0xf4f1b4d515acb93b_ee92fb5515482d44,
    0x991711052d8bf3c5_751bdd152d4d1c4a, 0xbf5cd54678eef0b6_d262d45a78a0635d,
    0xef340a98172aace4_86fb897116c87c34, 0x9580869f0e7aac0e_d45d35e6ae3d4da0,
    0xbae0a846d2195712_8974836059cca109, 0xe998d258869facd7_2bd1a438703fc94b,
    0x91ff83775423cc06_7b6306a34627ddcf, 0xb67f6455292cbf08_1a3bc84c17b1d542,
    0xe41f3d6a7377eeca_20caba5f1d9e4a93, 0x8e938662882af53e_547eb47b7282ee9c,
    0xb23867fb2a35b28d_e99e619a4f23aa43, 0xdec681f9f4c31f31_6405fa00e2ec94d4,
    0x8b3c113c38f9f37e_de83bc408dd3dd04, 0xae0b158b4738705e_9624ab50b148d445,
    0xd98ddaee19068c76_3badd624dd9b0957, 0x87f8a8d4cfa417c9_e54ca5d70a80e5d6,
    0xa9f6d30a038d1dbc_5e9fcf4ccd211f4c, 0xd47487cc8470652b_7647c3200069671f,
    0x84c8d4dfd2c63f3b_29ecd9f40041e073, 0xa5fb0a17c777cf09_f468107100525890,
    0xcf79cc9db955c2cc_7182148d4066eeb4, 0x81ac1fe293d599bf_c6f14cd848405530,
    0xa21727db38cb002f_b8ada00e5a506a7c, 0xca9cf1d206fdc03b_a6d90811f0e4851c,
    0xfd442e4688bd304a_908f4a166d1da663, 0x9e4a9cec15763e2e_9a598e4e043287fe,
    0xc5dd44271ad3cdba_40eff1e1853f29fd, 0xf7549530e188c128_d12bee59e68ef47c,
    0x9a94dd3e8cf578b9_82bb74f8301958ce, 0xc13a148e3032d6e7_e36a52363c1faf01,
    0xf18899b1bc3f8ca1_dc44e6c3cb279ac1, 0x96f5600f15a7b7e5_29ab103a5ef8c0b9,
    0xbcb2b812db11a5de_7415d448f6b6f0e7, 0xebdf661791d60f56_111b495b3464ad21,
    0x936b9fcebb25c995_cab10dd900beec34, 0xb84687c269ef3bfb_3d5d514f40eea742,
    0xe65829b3046b0afa_0cb4a5a3112a5112, 0x8ff71a0fe2c2e6dc_47f0e785eaba72ab,
    0xb3f4e093db73a093_59ed216765690f56, 0xe0f218b8d25088b8_306869c13ec3532c,
    0x8c974f7383725573_1e414218c73a13fb, 0xafbd2350644eeacf_e5d1929ef90898fa,
    0xdbac6c247d62a583_df45f746b74abf39, 0x894bc396ce5da772_6b8bba8c328eb783,
    0xab9eb47c81f5114f_066ea92f3f326564, 0xd686619ba27255a2_c80a537b0efefebd,
    0x8613fd0145877585_bd06742ce95f5f36, 0xa798fc4196e952e7_2c48113823b73704,
    0xd17f3b51fca3a7a0_f75a15862ca504c5, 0x82ef85133de648c4_9a984d73dbe722fb,
    0xa3ab66580d5fdaf5_c13e60d0d2e0ebba, 0xcc963fee10b7d1b3_318df905079926a8,
    0xffbbcfe994e5c61f_fdf17746497f7052, 0x9fd561f1fd0f9bd3_feb6ea8bedefa633,
    0xc7caba6e7c5382c8_fe64a52ee96b8fc0, 0xf9bd690a1b68637b_3dfdce7aa3c673b0,
    0x9c1661a651213e2d_06bea10ca65c084e, 0xc31bfa0fe5698db8_486e494fcff30a62,
    0xf3e2f893dec3f126_5a89dba3c3efccfa, 0x986ddb5c6b3a76b7_f89629465a75e01c,
    0xbe89523386091465_f6bbb397f1135823, 0xee2ba6c0678b597f_746aa07ded582e2c,
    0x94db483840b717ef_a8c2a44eb4571cdc, 0xba121a4650e4ddeb_92f34d62616ce413,
    0xe896a0d7e51e1566_77b020baf9c81d17, 0x915e2486ef32cd60_0ace1474dc1d122e,
    0xb5b5ada8aaff80b8_0d819992132456ba, 0xe3231912d5bf60e6_10e1fff697ed6c69,
    0x8df5efabc5979c8f_ca8d3ffa1ef463c1, 0xb1736b96b6fd83b3_bd308ff8a6b17cb2,
    0xddd0467c64bce4a0_ac7cb3f6d05ddbde, 0x8aa22c0dbef60ee4_6bcdf07a423aa96b,
    0xad4ab7112eb3929d_86c16c98d2c953c6, 0xd89d64d57a607744_e871c7bf077ba8b7,
    0x87625f056c7c4a8b_11471cd764ad4972, 0xa93af6c6c79b5d2d_d598e40d3dd89bcf,
    0xd389b47879823479_4aff1d108d4ec2c3, 0x843610cb4bf160cb_cedf722a585139ba,
    0xa54394fe1eedb8fe_c2974eb4ee658828, 0xce947a3da6a9273e_733d226229feea32,
    0x811ccc668829b887_0806357d5a3f525f, 0xa163ff802a3426a8_ca07c2dcb0cf26f7,
    0xc9bcff6034c13052_fc89b393dd02f0b5, 0xfc2c3f3841f17c67_bbac2078d443ace2,
    0x9d9ba7832936edc0_d54b944b84aa4c0d, 0xc5029163f384a931_0a9e795e65d4df11,
    0xf64335bcf065d37d_4d4617b5ff4a16d5, 0x99ea0196163fa42e_504bced1bf8e4e45,
    0xc06481fb9bcf8d39_e45ec2862f71e1d6, 0xf07da27a82c37088_5d767327bb4e5a4c,
    0x964e858c91ba2655_3a6a07f8d510f86f, 0xbbe226efb628afea_890489f70a55368b,
    0xeadab0aba3b2dbe5_2b45ac74ccea842e, 0x92c8ae6b464fc96f_3b0b8bc90012929d,
    0xb77ada0617e3bbcb_09ce6ebb40173744, 0xe55990879ddcaabd_cc420a6a101d0515,
    0x8f57fa54c2a9eab6_9fa946824a12232d, 0xb32df8e9f3546564_47939822dc96abf9,
    0xdff9772470297ebd_59787e2b93bc56f7, 0x8bfbea76c619ef36_57eb4edb3c55b65a,
    0xaefae51477a06b03_ede622920b6b23f1, 0xdab99e59958885c4_e95fab368e45eced,
    0x88b402f7fd75539b_11dbcb0218ebb414, 0xaae103b5fcd2a881_d652bdc29f26a119,
    0xd59944a37c0752a2_4be76d3346f0495f, 0x857fcae62d8493a5_6f70a4400c562ddb,
    0xa6dfbd9fb8e5b88e_cb4ccd500f6bb952, 0xd097ad07a71f26b2_7e2000a41346a7a7,
    0x825ecc24c873782f_8ed400668c0c28c8, 0xa2f67f2dfa90563b_728900802f0f32fa,
    0xcbb41ef979346bca_4f2b40a03ad2ffb9, 0xfea126b7d78186bc_e2f610c84987bfa8,
    0x9f24b832e6b0f436_0dd9ca7d2df4d7c9, 0xc6ede63fa05d3143_91503d1c79720dbb,
    0xf8a95fcf88747d94_75a44c6397ce912a, 0x9b69dbe1b548ce7c_c986afbe3ee11aba,
    0xc24452da229b021b_fbe85badce996168, 0xf2d56790ab41c2a2_fae27299423fb9c3,
    0x97c560ba6b0919a5_dccd879fc967d41a, 0xbdb6b8e905cb600f_5400e987bbc1c920,
    0xed246723473e3813_290123e9aab23b68, 0x9436c0760c86e30b_f9a0b6720aaf6521,
    0xb94470938fa89bce_f808e40e8d5b3e69, 0xe7958cb87392c2c2_b60b1d1230b20e04,
    0x90bd77f3483bb9b9_b1c6f22b5e6f48c2, 0xb4ecd5f01a4aa828_1e38aeb6360b1af3,
    0xe2280b6c20dd5232_25c6da63c38de1b0, 0x8d590723948a535f_579c487e5a38ad0e,
    0xb0af48ec79ace837_2d835a9df0c6d851, 0xdcdb1b2798182244_f8e431456cf88e65,
    0x8a08f0f8bf0f156b_1b8e9ecb641b58ff, 0xac8b2d36eed2dac5_e272467e3d222f3f,
    0xd7adf884aa879177_5b0ed81dcc6abb0f, 0x86ccbb52ea94baea_98e947129fc2b4e9,
    0xa87fea27a539e9a5_3f2398d747b36224, 0xd29fe4b18e88640e_8eec7f0d19a03aad,
    0x83a3eeeef9153e89_1953cf68300424ac, 0xa48ceaaab75a8e2b_5fa8c3423c052dd7,
    0xcdb02555653131b6_3792f412cb06794d, 0x808e17555f3ebf11_e2bbd88bbee40bd0,
    0xa0b19d2ab70e6ed6_5b6aceaeae9d0ec4, 0xc8de047564d20a8b_f245825a5a445275,
    0xfb158592be068d2e_eed6e2f0f0d56712, 0x9ced737bb6c4183d_55464dd69685606b,
    0xc428d05aa4751e4c_aa97e14c3c26b886, 0xf53304714d9265df_d53dd99f4b3066a8,
    0x993fe2c6d07b7fab_e546a8038efe4029, 0xbf8fdb78849a5f96_de98520472bdd033,
    0xef73d256a5c0f77c_963e66858f6d4440, 0x95a8637627989aad_dde7001379a44aa8,
    0xbb127c53b17ec159_5560c018580d5d52, 0xe9d71b689dde71af_aab8f01e6e10b4a6,
    0x9226712162ab070d_cab3961304ca70e8, 0xb6b00d69bb55c8d1_3d607b97c5fd0d22,
    0xe45c10c42a2b3b05_8cb89a7db77c506a, 0x8eb98a7a9a5b04e3_77f3608e92adb242,
    0xb267ed1940f1c61c_55f038b237591ed3, 0xdf01e85f912e37a3_6b6c46dec52f6688,
    0x8b61313bbabce2c6_2323ac4b3b3da015, 0xae397d8aa96c1b77_abec975e0a0d081a,
    0xd9c7dced53c72255_96e7bd358c904a21, 0x881cea14545c7575_7e50d64177da2e54,
    0xaa242499697392d2_dde50bd1d5d0b9e9, 0xd4ad2dbfc3d07787_955e4ec64b44e864,
    0x84ec3c97da624ab4_bd5af13bef0b113e, 0xa6274bbdd0fadd61_ecb1ad8aeacdd58e,
    0xcfb11ead453994ba_67de18eda5814af2, 0x81ceb32c4b43fcf4_80eacf948770ced7,
    0xa2425ff75e14fc31_a1258379a94d028d, 0xcad2f7f5359a3b3e_096ee45813a04330,
    0xfd87b5f28300ca0d_8bca9d6e188853fc, 0x9e74d1b791e07e48_775ea264cf55347e,
    0xc612062576589dda_95364afe032a819e, 0xf79687aed3eec551_3a83ddbd83f52205,
    0x9abe14cd44753b52_c4926a9672793543, 0xc16d9a0095928a27_75b7053c0f178294,
    0xf1c90080baf72cb1_5324c68b12dd6339, 0x971da05074da7bee_d3f6fc16ebca5e04,
    0xbce5086492111aea_88f4bb1ca6bcf585, 0xec1e4a7db69561a5_2b31e9e3d06c32e6,
    0x9392ee8e921d5d07_3aff322e62439fd0, 0xb877aa3236a4b449_09befeb9fad487c3,
    0xe69594bec44de15b_4c2ebe687989a9b4, 0x901d7cf73ab0acd9_0f9d37014bf60a11,
    0xb424dc35095cd80f_538484c19ef38c95, 0xe12e13424bb40e13_2865a5f206b06fba,
    0x8cbccc096f5088cb_f93f87b7442e45d4, 0xafebff0bcb24aafe_f78f69a51539d749,
    0xdbe6fecebdedd5be_b573440e5a884d1c, 0x89705f4136b4a597_31680a88f8953031,
    0xabcc77118461cefc_fdc20d2b36ba7c3e, 0xd6bf94d5e57a42bc_3d32907604691b4d,
    0x8637bd05af6c69b5_a63f9a49c2c1b110, 0xa7c5ac471b478423_0fcf80dc33721d54,
    0xd1b71758e219652b_d3c36113404ea4a9, 0x83126e978d4fdf3b_645a1cac083126ea,
    0xa3d70a3d70a3d70a_3d70a3d70a3d70a4, 0xcccccccccccccccc_cccccccccccccccd,
    0x8000000000000000_0000000000000000, 0xa000000000000000_0000000000000000,
    0xc800000000000000_0000000000000000, 0xfa00000000000000_0000000000000000,
    0x9c40000000000000_0000000000000000, 0xc350000000000000_0000000000000000,
    0xf424000000000000_0000000000000000, 0x9896800000000000_0000000000000000,
    0xbebc200000000000_0000000000000000, 0xee6b280000000000_0000000000000000,
    0x9502f90000000000_0000000000000000, 0xba43b74000000000_0000000000000000,
    0xe8d4a51000000000_0000000000000000, 0x9184e72a00000000_0000000000000000,
    0xb5e620f480000000_0000000000000000, 0xe35fa931a0000000_0000000000000000,
    0x8e1bc9bf04000000_0000000000000000, 0xb1a2bc2ec5000000_0000000000000000,
    0xde0b6b3a76400000_0000000000000000, 0x8ac7230489e80000_0000000000000000,
    0xad78ebc5ac620000_0000000000000000, 0xd8d726b7177a8000_0000000000000000,
    0x878678326eac9000_0000000000000000, 0xa968163f0a57b400_0000000000000000,
    0xd3c21bcecceda100_0000000000000000, 0x84595161401484a0_0000000000000000,
    0xa56fa5b99019a5c8_0000000000000000, 0xcecb8f27f4200f3a_0000000000000000,
    0x813f3978f8940984_4000000000000000, 0xa18f07d736b90be5_5000000000000000,
    0xc9f2c9cd04674ede_a400000000000000, 0xfc6f7c4045812296_4d00000000000000,
    0x9dc5ada82b70b59d_f020000000000000, 0xc5371912364ce305_6c28000000000000,
    0xf684df56c3e01bc6_c732000000000000, 0x9a130b963a6c115c_3c7f400000000000,
    0xc097ce7bc90715b3_4b9f100000000000, 0xf0bdc21abb48db20_1e86d40000000000,
    0x96769950b50d88f4_1314448000000000, 0xbc143fa4e250eb31_17d955a000000000,
    0xeb194f8e1ae525fd_5dcfab0800000000, 0x92efd1b8d0cf37be_5aa1cae500000000,
    0xb7abc627050305ad_f14a3d9e40000000, 0xe596b7b0c643c719_6d9ccd05d0000000,
    0x8f7e32ce7bea5c6f_e4820023a2000000, 0xb35dbf821ae4f38b_dda2802c8a800000,
    0xe0352f62a19e306e_d50b2037ad200000, 0x8c213d9da502de45_4526f422cc340000,
    0xaf298d050e4395d6_9670b12b7f410000, 0xdaf3f04651d47b4c_3c0cdd765f114000,
    0x88d8762bf324cd0f_a5880a69fb6ac800, 0xab0e93b6efee0053_8eea0d047a457a00,
    0xd5d238a4abe98068_72a4904598d6d880, 0x85a36366eb71f041_47a6da2b7f864750,
    0xa70c3c40a64e6c51_999090b65f67d924, 0xd0cf4b50cfe20765_fff4b4e3f741cf6d,
    0x82818f1281ed449f_bff8f10e7a8921a4, 0xa321f2d7226895c7_aff72d52192b6a0d,
    0xcbea6f8ceb02bb39_9bf4f8a69f764490, 0xfee50b7025c36a08_02f236d04753d5b4,
    0x9f4f2726179a2245_01d762422c946590, 0xc722f0ef9d80aad6_424d3ad2b7b97ef5,
    0xf8ebad2b84e0d58b_d2e0898765a7deb2, 0x9b934c3b330c8577_63cc55f49f88eb2f,
    0xc2781f49ffcfa6d5_3cbf6b71c76b25fb, 0xf316271c7fc3908a_8bef464e3945ef7a,
    0x97edd871cfda3a56_97758bf0e3cbb5ac, 0xbde94e8e43d0c8ec_3d52eeed1cbea317,
    0xed63a231d4c4fb27_4ca7aaa863ee4bdd, 0x945e455f24fb1cf8_8fe8caa93e74ef6a,
    0xb975d6b6ee39e436_b3e2fd538e122b44, 0xe7d34c64a9c85d44_60dbbca87196b616,
    0x90e40fbeea1d3a4a_bc8955e946fe31cd, 0xb51d13aea4a488dd_6babab6398bdbe41,
    0xe264589a4dcdab14_c696963c7eed2dd1, 0x8d7eb76070a08aec_fc1e1de5cf543ca2,
    0xb0de65388cc8ada8_3b25a55f43294bcb, 0xdd15fe86affad912_49ef0eb713f39ebe,
    0x8a2dbf142dfcc7ab_6e3569326c784337, 0xacb92ed9397bf996_49c2c37f07965404,
    0xd7e77a8f87daf7fb_dc33745ec97be906, 0x86f0ac99b4e8dafd_69a028bb3ded71a3,
    0xa8acd7c0222311bc_c40832ea0d68ce0c, 0xd2d80db02aabd62b_f50a3fa490c30190,
    0x83c7088e1aab65db_792667c6da79e0fa, 0xa4b8cab1a1563f52_577001b891185938,
    0xcde6fd5e09abcf26_ed4c0226b55e6f86, 0x80b05e5ac60b6178_544f8158315b05b4,
    0xa0dc75f1778e39d6_696361ae3db1c721, 0xc913936dd571c84c_03bc3a19cd1e38e9,
    0xfb5878494ace3a5f_04ab48a04065c723, 0x9d174b2dcec0e47b_62eb0d64283f9c76,
    0xc45d1df942711d9a_3ba5d0bd324f8394, 0xf5746577930d6500_ca8f44ec7ee36479,
    0x9968bf6abbe85f20_7e998b13cf4e1ecb, 0xbfc2ef456ae276e8_9e3fedd8c321a67e,
    0xefb3ab16c59b14a2_c5cfe94ef3ea101e, 0x95d04aee3b80ece5_bba1f1d158724a12,
    0xbb445da9ca61281f_2a8a6e45ae8edc97, 0xea1575143cf97226_f52d09d71a3293bd,
    0x924d692ca61be758_593c2626705f9c56, 0xb6e0c377cfa2e12e_6f8b2fb00c77836c,
    0xe498f455c38b997a_0b6dfb9c0f956447, 0x8edf98b59a373fec_4724bd4189bd5eac,
    0xb2977ee300c50fe7_58edec91ec2cb657, 0xdf3d5e9bc0f653e1_2f2967b66737e3ed,
    0x8b865b215899f46c_bd79e0d20082ee74, 0xae67f1e9aec07187_ecd8590680a3aa11,
    0xda01ee641a708de9_e80e6f4820cc9495, 0x884134fe908658b2_3109058d147fdcdd,
    0xaa51823e34a7eede_bd4b46f0599fd415, 0xd4e5e2cdc1d1ea96_6c9e18ac7007c91a,
    0x850fadc09923329e_03e2cf6bc604ddb0, 0xa6539930bf6bff45_84db8346b786151c,
    0xcfe87f7cef46ff16_e612641865679a63, 0x81f14fae158c5f6e_4fcb7e8f3f60c07e,
    0xa26da3999aef7749_e3be5e330f38f09d, 0xcb090c8001ab551c_5cadf5bfd3072cc5,
    0xfdcb4fa002162a63_73d9732fc7c8f7f6, 0x9e9f11c4014dda7e_2867e7fddcdd9afa,
    0xc646d63501a1511d_b281e1fd541501b8, 0xf7d88bc24209a565_1f225a7ca91a4226,
    0x9ae757596946075f_3375788de9b06958, 0xc1a12d2fc3978937_0052d6b1641c83ae,
    0xf209787bb47d6b84_c0678c5dbd23a49a, 0x9745eb4d50ce6332_f840b7ba963646e0,
    0xbd176620a501fbff_b650e5a93bc3d898, 0xec5d3fa8ce427aff_a3e51f138ab4cebe,
    0x93ba47c980e98cdf_c66f336c36b10137, 0xb8a8d9bbe123f017_b80b0047445d4184,
    0xe6d3102ad96cec1d_a60dc059157491e5, 0x9043ea1ac7e41392_87c89837ad68db2f,
    0xb454e4a179dd1877_29babe4598c311fb, 0xe16a1dc9d8545e94_f4296dd6fef3d67a,
    0x8ce2529e2734bb1d_1899e4a65f58660c, 0xb01ae745b101e9e4_5ec05dcff72e7f8f,
    0xdc21a1171d42645d_76707543f4fa1f73, 0x899504ae72497eba_6a06494a791c53a8,
    0xabfa45da0edbde69_0487db9d17636892, 0xd6f8d7509292d603_45a9d2845d3c42b6,
    0x865b86925b9bc5c2_0b8a2392ba45a9b2, 0xa7f26836f282b732_8e6cac7768d7141e,
    0xd1ef0244af2364ff_3207d795430cd926, 0x8335616aed761f1f_7f44e6bd49e807b8,
    0xa402b9c5a8d3a6e7_5f16206c9c6209a6, 0xcd036837130890a1_36dba887c37a8c0f,
    0x802221226be55a64_c2494954da2c9789, 0xa02aa96b06deb0fd_f2db9baa10b7bd6c,
    0xc83553c5c8965d3d_6f92829494e5acc7, 0xfa42a8b73abbf48c_cb772339ba1f17f9,
    0x9c69a97284b578d7_ff2a760414536efb, 0xc38413cf25e2d70d_fef5138519684aba,
    0xf46518c2ef5b8cd1_7eb258665fc25d69, 0x98bf2f79d5993802_ef2f773ffbd97a61,
    0xbeeefb584aff8603_aafb550ffacfd8fa, 0xeeaaba2e5dbf6784_95ba2a53f983cf38,
    0x952ab45cfa97a0b2_dd945a747bf26183, 0xba756174393d88df_94f971119aeef9e4,
    0xe912b9d1478ceb17_7a37cd5601aab85d, 0x91abb422ccb812ee_ac62e055c10ab33a,
    0xb616a12b7fe617aa_577b986b314d6009, 0xe39c49765fdf9d94_ed5a7e85fda0b80b,
    0x8e41ade9fbebc27d_14588f13be847307, 0xb1d219647ae6b31c_596eb2d8ae258fc8,
    0xde469fbd99a05fe3_6fca5f8ed9aef3bb, 0x8aec23d680043bee_25de7bb9480d5854,
    0xada72ccc20054ae9_af561aa79a10ae6a, 0xd910f7ff28069da4_1b2ba1518094da04,
    0x87aa9aff79042286_90fb44d2f05d0842, 0xa99541bf57452b28_353a1607ac744a53,
    0xd3fa922f2d1675f2_42889b8997915ce8, 0x847c9b5d7c2e09b7_69956135febada11,
    0xa59bc234db398c25_43fab9837e699095, 0xcf02b2c21207ef2e_94f967e45e03f4bb,
    0x8161afb94b44f57d_1d1be0eebac278f5, 0xa1ba1ba79e1632dc_6462d92a69731732,
    0xca28a291859bbf93_7d7b8f7503cfdcfe, 0xfcb2cb35e702af78_5cda735244c3d43e,
    0x9defbf01b061adab_3a0888136afa64a7, 0xc56baec21c7a1916_088aaa1845b8fdd0,
    0xf6c69a72a3989f5b_8aad549e57273d45, 0x9a3c2087a63f6399_36ac54e2f678864b,
    0xc0cb28a98fcf3c7f_84576a1bb416a7dd, 0xf0fdf2d3f3c30b9f_656d44a2a11c51d5,
    0x969eb7c47859e743_9f644ae5a4b1b325, 0xbc4665b596706114_873d5d9f0dde1fee,
    0xeb57ff22fc0c7959_a90cb506d155a7ea, 0x9316ff75dd87cbd8_09a7f12442d588f2,
    0xb7dcbf5354e9bece_0c11ed6d538aeb2f, 0xe5d3ef282a242e81_8f1668c8a86da5fa,
    0x8fa475791a569d10_f96e017d694487bc, 0xb38d92d760ec4455_37c981dcc395a9ac,
    0xe070f78d3927556a_85bbe253f47b1417, 0x8c469ab843b89562_93956d7478ccec8e,
    0xaf58416654a6babb_387ac8d1970027b2, 0xdb2e51bfe9d0696a_06997b05fcc0319e,
    0x88fcf317f22241e2_441fece3bdf81f03, 0xab3c2fddeeaad25a_d527e81cad7626c3,
    0xd60b3bd56a5586f1_8a71e223d8d3b074, 0x85c7056562757456_f6872d5667844e49,
    0xa738c6bebb12d16c_b428f8ac016561db, 0xd106f86e69d785c7_e13336d701beba52,
    0x82a45b450226b39c_ecc0024661173473, 0xa34d721642b06084_27f002d7f95d0190,
    0xcc20ce9bd35c78a5_31ec038df7b441f4, 0xff290242c83396ce_7e67047175a15271,
    0x9f79a169bd203e41_0f0062c6e984d386, 0xc75809c42c684dd1_52c07b78a3e60868,
    0xf92e0c3537826145_a7709a56ccdf8a82, 0x9bbcc7a142b17ccb_88a66076400bb691,
    0xc2abf989935ddbfe_6acff893d00ea435, 0xf356f7ebf83552fe_0583f6b8c4124d43,
    0x98165af37b2153de_c3727a337a8b704a, 0xbe1bf1b059e9a8d6_744f18c0592e4c5c,
    0xeda2ee1c7064130c_1162def06f79df73, 0x9485d4d1c63e8be7_8addcb5645ac2ba8,
    0xb9a74a0637ce2ee1_6d953e2bd7173692, 0xe8111c87c5c1ba99_c8fa8db6ccdd0437,
    0x910ab1d4db9914a0_1d9c9892400a22a2, 0xb54d5e4a127f59c8_2503beb6d00cab4b,
    0xe2a0b5dc971f303a_2e44ae64840fd61d, 0x8da471a9de737e24_5ceaecfed289e5d2,
    0xb10d8e1456105dad_7425a83e872c5f47, 0xdd50f1996b947518_d12f124e28f77719,
    0x8a5296ffe33cc92f_82bd6b70d99aaa6f, 0xace73cbfdc0bfb7b_636cc64d1001550b,
    0xd8210befd30efa5a_3c47f7e05401aa4e, 0x8714a775e3e95c78_65acfaec34810a71,
    0xa8d9d1535ce3b396_7f1839a741a14d0d, 0xd31045a8341ca07c_1ede48111209a050,
    0x83ea2b892091e44d_934aed0aab460432, 0xa4e4b66b68b65d60_f81da84d5617853f,
    0xce1de40642e3f4b9_36251260ab9d668e, 0x80d2ae83e9ce78f3_c1d72b7c6b426019,
    0xa1075a24e4421730_b24cf65b8612f81f, 0xc94930ae1d529cfc_dee033f26797b627,
    0xfb9b7cd9a4a7443c_169840ef017da3b1, 0x9d412e0806e88aa5_8e1f289560ee864e,
    0xc491798a08a2ad4e_f1a6f2bab92a27e2, 0xf5b5d7ec8acb58a2_ae10af696774b1db,
    0x9991a6f3d6bf1765_acca6da1e0a8ef29, 0xbff610b0cc6edd3f_17fd090a58d32af3,
    0xeff394dcff8a948e_ddfc4b4cef07f5b0, 0x95f83d0a1fb69cd9_4abdaf101564f98e,
    0xbb764c4ca7a4440f_9d6d1ad41abe37f1, 0xea53df5fd18d5513_84c86189216dc5ed,
    0x92746b9be2f8552c_32fd3cf5b4e49bb4, 0xb7118682dbb66a77_3fbc8c33221dc2a1,
    0xe4d5e82392a40515_0fabaf3feaa5334a, 0x8f05b1163ba6832d_29cb4d87f2a7400e,
    0xb2c71d5bca9023f8_743e20e9ef511012, 0xdf78e4b2bd342cf6_914da9246b255416,
    0x8bab8eefb6409c1a_1ad089b6c2f7548e, 0xae9672aba3d0c320_a184ac2473b529b1,
    0xda3c0f568cc4f3e8_c9e5d72d90a2741e, 0x8865899617fb1871_7e2fa67c7a658892,
    0xaa7eebfb9df9de8d_ddbb901b98feeab7, 0xd51ea6fa85785631_552a74227f3ea565,
    0x8533285c936b35de_d53a88958f87275f, 0xa67ff273b8460356_8a892abaf368f137,
    0xd01fef10a657842c_2d2b7569b0432d85, 0x8213f56a67f6b29b_9c3b29620e29fc73,
    0xa298f2c501f45f42_8349f3ba91b47b8f, 0xcb3f2f7642717713_241c70a936219a73,
    0xfe0efb53d30dd4d7_ed238cd383aa0110, 0x9ec95d1463e8a506_f4363804324a40aa,
    0xc67bb4597ce2ce48_b143c6053edcd0d5, 0xf81aa16fdc1b81da_dd94b7868e94050a,
    0x9b10a4e5e9913128_ca7cf2b4191c8326, 0xc1d4ce1f63f57d72_fd1c2f611f63a3f0,
    0xf24a01a73cf2dccf_bc633b39673c8cec, 0x976e41088617ca01_d5be0503e085d813,
    0xbd49d14aa79dbc82_4b2d8644d8a74e18, 0xec9c459d51852ba2_ddf8e7d60ed1219e,
    0x93e1ab8252f33b45_cabb90e5c942b503, 0xb8da1662e7b00a17_3d6a751f3b936243,
    0xe7109bfba19c0c9d_0cc512670a783ad4, 0x906a617d450187e2_27fb2b80668b24c5,
    0xb484f9dc9641e9da_b1f9f660802dedf6, 0xe1a63853bbd26451_5e7873f8a0396973,
    0x8d07e33455637eb2_db0b487b6423e1e8, 0xb049dc016abc5e5f_91ce1a9a3d2cda62,
    0xdc5c5301c56b75f7_7641a140cc7810fb, 0x89b9b3e11b6329ba_a9e904c87fcb0a9d,
    0xac2820d9623bf429_546345fa9fbdcd44, 0xd732290fbacaf133_a97c177947ad4095,
    0x867f59a9d4bed6c0_49ed8eabcccc485d, 0xa81f301449ee8c70_5c68f256bfff5a74,
    0xd226fc195c6a2f8c_73832eec6fff3111, 0x83585d8fd9c25db7_c831fd53c5ff7eab,
    0xa42e74f3d032f525_ba3e7ca8b77f5e55, 0xcd3a1230c43fb26f_28ce1bd2e55f35eb,
    0x80444b5e7aa7cf85_7980d163cf5b81b3, 0xa0555e361951c366_d7e105bcc332621f,
    0xc86ab5c39fa63440_8dd9472bf3fefaa7, 0xfa856334878fc150_b14f98f6f0feb951,
    0x9c935e00d4b9d8d2_6ed1bf9a569f33d3, 0xc3b8358109e84f07_0a862f80ec4700c8,
    0xf4a642e14c6262c8_cd27bb612758c0fa, 0x98e7e9cccfbd7dbd_8038d51cb897789c,
    0xbf21e44003acdd2c_e0470a63e6bd56c3, 0xeeea5d5004981478_1858ccfce06cac74,
    0x95527a5202df0ccb_0f37801e0c43ebc8, 0xbaa718e68396cffd_d30560258f54e6ba,
    0xe950df20247c83fd_47c6b82ef32a2069, 0x91d28b7416cdd27e_4cdc331d57fa5441,
    0xb6472e511c81471d_e0133fe4adf8e952, 0xe3d8f9e563a198e5_58180fddd97723a6,
    0x8e679c2f5e44ff8f_570f09eaa7ea7648,
];

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    /// A nonnegative integer in 32-bit limbs, least significant first.
    struct Big(Vec<u32>);

    impl Big {
        fn power_of_two(b: usize) -> Big {
            let mut limbs = vec![0; b / 32 + 1];
            limbs[b / 32] = 1 << (b % 32);
            Big(limbs)
        }

        fn power_of_five(k: i64) -> Big {
            let mut p = Big(vec![1]);
            for _ in 0..k {
                p.mul5();
            }
            p
        }

        fn mul5(&mut self) {
            let mut carry = 0;
            for limb in &mut self.0 {
                let x = u64::from(*limb) * 5 + carry;
                *limb = x as u32;
                carry = x >> 32;
            }
            if carry != 0 {
                self.0.push(carry as u32);
            }
        }

        /// Floor division by five.
        fn div5(&mut self) {
            let mut rem = 0;
            for limb in self.0.iter_mut().rev() {
                let x = (rem << 32) | u64::from(*limb);
                *limb = (x / 5) as u32;
                rem = x % 5;
            }
            while self.0.last() == Some(&0) {
                self.0.pop();
            }
        }

        fn add1(&mut self) {
            for limb in &mut self.0 {
                let (sum, carry) = limb.overflowing_add(1);
                *limb = sum;
                if !carry {
                    return;
                }
            }
            self.0.push(1);
        }

        fn bits(&self) -> usize {
            let top = self.0.last().expect("nonzero");
            self.0.len() * 32 - top.leading_zeros() as usize
        }

        /// The top 128 bits, truncated (or shifted up when shorter).
        fn top128(&self) -> u128 {
            let n = self.bits();
            (0..128).fold(0, |acc, k| {
                let bit = n
                    .checked_sub(k + 1)
                    .is_some_and(|i| self.0[i / 32] >> (i % 32) & 1 == 1);
                acc << 1 | u128::from(bit)
            })
        }
    }

    #[test]
    fn pow5_table_matches_exact_big_integer_arithmetic() {
        // q ≥ 0: multiply by five, keep the top 128 bits.
        let mut p = Big(vec![1]);
        for q in 0..=MAX_Q {
            assert_eq!(POW5[(q - MIN_Q) as usize], p.top128(), "5^{q}");
            p.mul5();
        }
        // q < 0: ⌊2^b / 5^-q⌋ + 1, dividing by five -q times.
        for q in MIN_Q..0 {
            let z = Big::power_of_five(-q).bits();
            let b = if q >= -27 { z + 127 } else { 2 * z + 128 };
            let mut c = Big::power_of_two(b);
            for _ in 0..-q {
                c.div5();
            }
            c.add1();
            if q >= -27 {
                assert_eq!(c.bits(), 128, "5^{q} needs no truncation");
            }
            assert_eq!(POW5[(q - MIN_Q) as usize], c.top128(), "5^{q}");
        }
    }

    #[test]
    fn swar_reads_eight_digits_and_only_digits() {
        let word = |s: &[u8]| u64::from_le_bytes(s.try_into().unwrap());
        assert!(eight_digits(word(b"01234567")));
        assert_eq!(parse_eight(word(b"01234567")), 1_234_567);
        assert_eq!(parse_eight(word(b"99999999")), 99_999_999);
        for i in 0..8 {
            for b in (0..=255u8).filter(|b| !b.is_ascii_digit()) {
                let mut s = *b"98765432";
                s[i] = b;
                assert!(!eight_digits(word(&s)), "{s:?}");
            }
        }
    }

    /// Whether `str::parse` reads `s` in a form [`parse`] leaves out:
    /// another syntax or more than 19 significant digits.
    fn left_out(s: &str) -> bool {
        let mantissa = s.split(['e', 'E']).next().unwrap();
        let mantissa = mantissa.strip_prefix('-').unwrap_or(mantissa);
        let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, "1"));
        let decimal = |t: &str| !t.is_empty() && t.bytes().all(|b| b.is_ascii_digit());
        !decimal(int) || !decimal(frac) || significant_digits(mantissa.as_bytes()) > 19
    }

    /// Undecided halfway cases met, which may refuse a string in form.
    static UNDECIDED: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    /// [`parse`] over the whole of `s` against `str::parse`; returns
    /// whether [`parse`] accepted `s`.
    fn check(s: &str) -> bool {
        let whole = parse(s.as_bytes()).filter(|&(_, len)| len == s.len());
        match (whole, s.parse::<f64>()) {
            (Some((v, _)), Ok(want)) => assert_eq!(v.to_bits(), want.to_bits(), "`{s}`"),
            (Some((v, _)), Err(_)) => panic!("`{s}` reads {v}, which str::parse refuses"),
            (None, Err(_)) => {}
            (None, Ok(_)) if left_out(s) => {}
            (None, Ok(_)) => {
                // In form: the converter itself must have declined.
                let digits: String = s.split(['e', 'E']).next().unwrap().replace(['-', '.'], "");
                let w: u64 = digits.parse().expect("at most 19 significant digits");
                let frac = s
                    .split(['e', 'E'])
                    .next()
                    .unwrap()
                    .split_once('.')
                    .map_or(0, |(_, f)| f.len());
                let exp: i64 = s
                    .split_once(['e', 'E'])
                    .map_or(0, |(_, e)| e.parse().unwrap());
                assert_eq!(eisel_lemire(w, exp - frac as i64), None, "`{s}` refused");
                UNDECIDED.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        whole.is_some()
    }

    /// Strings an exact tie between two adjacent doubles spells, and the
    /// strings one unit either side of it, with 17 to 20 digits: `w · 10^q`
    /// for `q` in [-4, 23] (where Eisel–Lemire meets exact ties) equal to
    /// an odd 54-bit integer times a power of two.
    fn near_halfway(rng: &mut StdRng) -> Vec<String> {
        let q: i64 = rng.gen_range(-4..=23);
        let p5 = 5u64.pow(q.unsigned_abs() as u32);
        let (lo, hi) = if q >= 0 {
            ((1u64 << 53).div_ceil(p5), ((1u64 << 54) - 1) / p5)
        } else {
            (1 << 53, (1 << 54) - 1)
        };
        let a = rng.gen_range(lo..=hi) | 1;
        let a = if a > hi { a - 2 } else { a };
        let w = if q >= 0 { a } else { a * p5 };
        let w = w << rng.gen_range(0..=w.leading_zeros().saturating_sub(1));
        let mut out = Vec::new();
        for w in [w - 1, w, w + 1] {
            out.push(format!("{w}e{q}"));
            out.push(format!("{w}0e{}", q - 1));
            if q < 0 {
                let digits = w.to_string();
                let (int, frac) = digits.split_at(digits.len() - q.unsigned_abs() as usize);
                out.push(format!("{int}.{frac}"));
            }
        }
        out
    }

    /// Strings to check from one draw: a random double's bit pattern
    /// (half the time a subnormal) written with `{}`, `{:e}` and
    /// `{:.18e}`, and the near-halfway cases of [`near_halfway`].
    fn draw(rng: &mut StdRng) -> Vec<String> {
        let mut bits: u64 = rng.gen();
        if rng.gen_bool(0.5) {
            bits &= (1 << 63) | ((1 << 52) - 1);
        }
        let v = f64::from_bits(bits);
        let mut out = vec![format!("{v}"), format!("{v:e}"), format!("{v:.18e}")];
        out.extend(near_halfway(rng));
        out
    }

    #[test]
    fn decimal_edge_cases_match_str_parse() {
        let cases = [
            "0",
            "-0",
            "0.0",
            "-0.0",
            "0e0",
            "0e999999",
            "-0e-999999",
            "00000000000000000000000.5",
            "1",
            "-1",
            "1.5",
            "12345678",
            "123456789",
            "1234567890123456789",
            "12345678901234567890",
            "0.1",
            "0.30000000000000004",
            "1e23",
            "8.98846567431158e307",
            "1.7976931348623157e308",
            "1.7976931348623158e308",
            "1.7976931348623159e308",
            "2.2250738585072014e-308",
            "2.2250738585072011e-308",
            "4.9406564584124654e-324",
            "2.4703282292062327e-324",
            "2.4703282292062328e-324",
            "5e-324",
            "1e-400",
            "1e400",
            "9007199254740993",
            "9007199254740995",
            "9007199254740993.0",
            "1e+5",
            "1E-5",
            "1e",
            "1e+",
            "-",
            "",
            ".5",
            "5.",
            "+1",
            "--1",
            "1..2",
            "inf",
            "NaN",
            "infinity",
            "1_0",
            "0x10",
            "1e99999999999999999999",
            "1e-99999999999999999999",
        ];
        // `str::parse` stops adding exponent digits once the exponent
        // reaches 65,536, whatever the zeros after the point: the first
        // two fields read 1 there (exponents 100,000 and 65,536), not
        // infinity, and so here.
        let zeros = "0".repeat(99_999);
        let first = format!("0.{zeros}1e1000004");
        for s in [
            first.clone(),
            format!("0.{}1e6553600", &zeros[..65_535]),
            format!("-0.{zeros}1e-1000004"),
            format!("0.{zeros}1e100004"),
            format!("0.{zeros}1e65536"),
            format!("0.{zeros}1"),
            "1e65535".into(),
            "1e65536".into(),
            "1e-65537".into(),
            "1e655360".into(),
        ] {
            assert!(check(&s), "`{}…` refused", &s[..10]);
        }
        assert_eq!(parse(first.as_bytes()), Some((1.0, first.len())));
        let refused: Vec<&str> = cases.into_iter().filter(|s| !check(s)).collect();
        assert_eq!(
            refused,
            [
                "12345678901234567890",
                "1e",
                "1e+",
                "-",
                "",
                ".5",
                "5.",
                "+1",
                "--1",
                "1..2",
                "inf",
                "NaN",
                "infinity",
                "1_0",
                "0x10",
            ]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4_000))]

        #[test]
        fn decimal_agrees_with_str_parse(seed in 0u64..u64::MAX) {
            for s in draw(&mut StdRng::seed_from_u64(seed)) {
                check(&s);
            }
        }
    }

    /// About ten million strings through [`check`]; run it in release
    /// with `cargo test --release -p fm-data -- --ignored decimal`.
    #[test]
    #[ignore = "long sweep"]
    fn decimal_agrees_with_str_parse_long_sweep() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let (mut checked, mut accepted) = (0, 0);
        while checked < 10_000_000 {
            for s in draw(&mut rng) {
                accepted += usize::from(check(&s));
                checked += 1;
            }
        }
        let undecided = UNDECIDED.load(std::sync::atomic::Ordering::Relaxed);
        eprintln!("{checked} strings: {accepted} accepted, {undecided} undecided halfway cases");
        assert!(accepted > checked / 2);
    }
}
