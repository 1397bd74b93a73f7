//! Golden SSRP version-2 frames: the exact bytes a `get` response puts
//! on a socket for small tensors of each value width, written out in hex.
//! A change to the frame layout, the version byte, the tensor body or the
//! CRC shows up here as a byte diff.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::Read;
use std::net::TcpStream;
use std::sync::Arc;

use ss_serve::protocol::DEFAULT_MAX_BODY;
use ss_serve::wire::{decode_tensor, encode_get};
use ss_serve::{Frame, Op, ServeConfig, Server, Service};
use ss_store::{MemoryProvider, ModelWriter};
use ss_tensor::{FixedType, Shape, Tensor};

/// The bytes a hex string spells, whitespace ignored.
fn hex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

/// Each record: its name, container, values, and the `get` response
/// frame for request id `0x0102030405060708 + i`. Frame fields, in
/// order: magic `SSRP`, version 2, kind 0x83 (get response), request id
/// (u64 LE), body length (u32 LE), status 0 (`Ok`), the tensor body —
/// bits, signedness, rank 1, the value count (u32 LE), then each value
/// at the container's width (1 byte up to 8 bits, 2 bytes LE up to 16,
/// two's complement when signed) — and the CRC-32 (LE) of everything
/// before it.
const GOLDEN: [(&str, FixedType, &[i32], &str); 4] = [
    (
        "i16",
        FixedType::I16,
        &[-1, 300, -32767],
        "53535250 02 83 0807060504030201 0e000000
         00 10 01 01 03000000 ffff 2c01 0180
         be2bd023",
    ),
    (
        "u16",
        FixedType::U16,
        &[65535, 0, 1],
        "53535250 02 83 0907060504030201 0e000000
         00 10 00 01 03000000 ffff 0000 0100
         d738f659",
    ),
    (
        "i8",
        FixedType::I8,
        &[-5, 127, 0, -127],
        "53535250 02 83 0a07060504030201 0c000000
         00 08 01 01 04000000 fb 7f 00 81
         c09f1b65",
    ),
    (
        "u8",
        FixedType::U8,
        &[255, 1, 0, 128],
        "53535250 02 83 0b07060504030201 0c000000
         00 08 00 01 04000000 ff 01 00 80
         4273f6ad",
    ),
];

#[test]
fn get_responses_match_the_golden_v2_frames() {
    let provider = Arc::new(MemoryProvider::new());
    let mut writer = ModelWriter::new(provider.as_ref(), "golden");
    for (i, &(name, dtype, values, _)) in GOLDEN.iter().enumerate() {
        let t = Tensor::from_vec(Shape::flat(values.len()), dtype, values.to_vec()).unwrap();
        writer.append_tensor(name, i as u32, &t).unwrap();
    }
    writer.finish().unwrap();
    let mut service = Service::new(ServeConfig::new().with_workers(1)).unwrap();
    service.add_model("golden", provider);
    service.start();
    let server = Server::start(service.handle(), "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();

    for (i, &(name, dtype, values, golden)) in GOLDEN.iter().enumerate() {
        let id = 0x0102_0304_0506_0708 + i as u64;
        Frame::request(Op::Get, id, encode_get("golden", name))
            .write_to(&mut stream)
            .unwrap();
        let want = hex(golden);
        let mut got = vec![0; want.len()];
        stream.read_exact(&mut got).unwrap();
        assert_eq!(got, want, "{name}");
        // And the golden body decodes back to the stored values.
        let (frame, _) = Frame::decode(&want, DEFAULT_MAX_BODY).unwrap();
        let back = decode_tensor(&frame.body[1..]).unwrap();
        assert_eq!((back.dtype(), back.values()), (dtype, values), "{name}");
    }

    drop(stream);
    server.stop();
    let _ = service.shutdown();
}
