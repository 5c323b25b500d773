//===- pregel/Message.h - BSP message representation -----------------------===//
///
/// \file
/// The unit of vertex-to-vertex communication. `Message` mirrors the message
/// class a GPS program would declare: an optional integer type tag (used when
/// one program exchanges several logically distinct messages, §3.1 "Multiple
/// Communication") and a small scalar payload. It is the *send-side* value
/// type; inside the engine messages travel as packed fixed-size records of
/// the program's MessageLayout (see MessageLayout.h). `MsgRef`/`MsgRange`
/// are the cursors vertices read their inbox through.
///
//===----------------------------------------------------------------------===//

#ifndef GM_PREGEL_MESSAGE_H
#define GM_PREGEL_MESSAGE_H

#include "graph/Graph.h"
#include "pregel/MessageLayout.h"
#include "support/Value.h"

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>

namespace gm::pregel {

/// A message as a vertex program builds it before sending. The engine
/// packs it into a fixed-size record of the program's MessageLayout at send
/// time; the struct never enters a mailbox.
struct Message {
  int32_t Type = 0;
  uint8_t Size = 0;
  std::array<Value, MaxMessagePayload> Payload;

  void push(const Value &V) {
    assert(Size < MaxMessagePayload && "message payload overflow");
    Payload[Size++] = V;
  }

  const Value &operator[](unsigned I) const {
    assert(I < Size && "payload index out of range");
    return Payload[I];
  }
};

/// Encodes \p M bound for \p Dst into \p Rec (L.recordSize() bytes). The
/// caller provides zeroed scratch so record padding (types narrower than the
/// layout's widest) is deterministic. Returns false, and packs nothing
/// usable, when \p M does not match the layout: an undeclared tag, a payload
/// arity, or a slot kind that differs from the declaration (schemaMismatch
/// says which). The check runs in every build; a record packed against the
/// wrong schema would be misread by every receiver.
inline bool packMessage(const MessageLayout &L, std::byte *Rec, NodeId Dst,
                        const Message &M) {
  if (!L.hasType(M.Type))
    return false;
  const MsgTypeLayout &T = L.type(M.Type);
  if (M.Size != T.Slots.size())
    return false;
  MessageLayout::writeDst(Rec, Dst);
  L.writeTag(Rec, M.Type);
  for (unsigned I = 0; I < M.Size; ++I) {
    const Value &V = M.Payload[I];
    if (V.kind() != T.Slots[I])
      return false;
    switch (T.Slots[I]) {
    case ValueKind::Bool: {
      uint8_t B = V.getBool() ? 1 : 0;
      std::memcpy(Rec + T.Offset[I], &B, 1);
      break;
    }
    case ValueKind::Int: {
      int64_t X = V.getInt();
      std::memcpy(Rec + T.Offset[I], &X, 8);
      break;
    }
    case ValueKind::Double: {
      double X = V.getDouble();
      std::memcpy(Rec + T.Offset[I], &X, 8);
      break;
    }
    default:
      assert(false && "unreachable: layout admits concrete kinds only");
    }
  }
  return true;
}

/// Why packMessage rejects \p M: the tag must be declared and the payload
/// arity/kinds must match its slots exactly. Returns "" when consistent.
inline std::string schemaMismatch(const MessageLayout &L, const Message &M) {
  if (!L.hasType(M.Type))
    return "message tag " + std::to_string(M.Type) +
           " is not declared in the message layout";
  const MsgTypeLayout &T = L.type(M.Type);
  if (M.Size != T.Slots.size())
    return "message tag " + std::to_string(M.Type) + " carries " +
           std::to_string(M.Size) + " payload slot(s) but the layout declares " +
           std::to_string(T.Slots.size());
  for (unsigned I = 0; I < M.Size; ++I)
    if (M.Payload[I].kind() != T.Slots[I])
      return "message tag " + std::to_string(M.Type) + " payload slot " +
             std::to_string(I) + " has kind '" +
             valueKindName(M.Payload[I].kind()) + "' but the layout declares '" +
             valueKindName(T.Slots[I]) + "'";
  return "";
}

/// A read-only view of one received message: a packed record interpreted
/// through its MessageLayout. Pointer-sized pair — pass by value.
class MsgRef {
public:
  MsgRef() = default;
  MsgRef(const std::byte *Rec, const MessageLayout *L) : Rec(Rec), Layout(L) {
    assert(L && "MsgRef requires a layout");
  }

  bool valid() const { return Rec != nullptr; }

  int32_t type() const { return Layout->recordTag(Rec); }

  unsigned size() const {
    return static_cast<unsigned>(Layout->type(type()).Slots.size());
  }

  int64_t getInt(unsigned I) const {
    const MsgTypeLayout &T = Layout->type(type());
    assert(I < T.Slots.size() && T.Slots[I] == ValueKind::Int);
    int64_t X;
    std::memcpy(&X, Rec + T.Offset[I], 8);
    return X;
  }

  double getDouble(unsigned I) const {
    const MsgTypeLayout &T = Layout->type(type());
    assert(I < T.Slots.size() && T.Slots[I] == ValueKind::Double);
    double X;
    std::memcpy(&X, Rec + T.Offset[I], 8);
    return X;
  }

  bool getBool(unsigned I) const {
    const MsgTypeLayout &T = Layout->type(type());
    assert(I < T.Slots.size() && T.Slots[I] == ValueKind::Bool);
    uint8_t B;
    std::memcpy(&B, Rec + T.Offset[I], 1);
    return B != 0;
  }

  /// Boxes slot \p I back into a Value (the IR executor's evaluation
  /// currency). The typed getters above skip the box.
  Value get(unsigned I) const {
    const MsgTypeLayout &T = Layout->type(type());
    assert(I < T.Slots.size() && "payload index out of range");
    switch (T.Slots[I]) {
    case ValueKind::Bool:
      return Value::makeBool(getBool(I));
    case ValueKind::Int:
      return Value::makeInt(getInt(I));
    case ValueKind::Double:
      return Value::makeDouble(getDouble(I));
    default:
      assert(false && "unreachable: layout admits concrete kinds only");
      return Value();
    }
  }

  Value operator[](unsigned I) const { return get(I); }

private:
  const std::byte *Rec = nullptr;
  const MessageLayout *Layout = nullptr;
};

/// Strided forward iterator over an inbox region; dereferences to MsgRef.
class MsgIter {
public:
  MsgIter(const std::byte *P, size_t Stride, const MessageLayout *L)
      : P(P), Stride(Stride), Layout(L) {}

  MsgRef operator*() const { return MsgRef(P, Layout); }
  MsgIter &operator++() {
    P += Stride;
    return *this;
  }
  bool operator==(const MsgIter &O) const { return P == O.P; }
  bool operator!=(const MsgIter &O) const { return P != O.P; }

private:
  const std::byte *P;
  size_t Stride;
  const MessageLayout *Layout;
};

/// The messages delivered to one vertex this superstep — a lightweight
/// cursor over packed records, in delivery order.
class MsgRange {
public:
  MsgRange() = default;
  MsgRange(const std::byte *Data, size_t Count, const MessageLayout *L)
      : Data(Data), Count(Count), Stride(L->recordSize()), Layout(L) {}

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  MsgIter begin() const { return MsgIter(Data, Stride, Layout); }
  MsgIter end() const { return MsgIter(Data + Count * Stride, Stride, Layout); }

  MsgRef operator[](size_t I) const {
    assert(I < Count && "message index out of range");
    return MsgRef(Data + I * Stride, Layout);
  }

private:
  const std::byte *Data = nullptr;
  size_t Count = 0;
  size_t Stride = 0;
  const MessageLayout *Layout = nullptr;
};

} // namespace gm::pregel

#endif // GM_PREGEL_MESSAGE_H
