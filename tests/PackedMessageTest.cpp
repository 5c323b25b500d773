//===- tests/PackedMessageTest.cpp - Packed message records ----------------===//
///
/// The engine's one mailbox format: this suite pins the MessageLayout
/// derivation, the packed record encoding and its send-time schema check,
/// and the MsgRef cursor. What the engine computes on top of it is checked
/// against the reference implementations (EndToEndTest, CombinerTest) and
/// across worker counts, partitions and modes (the Threaded, Partitioning
/// and Schedule suites).
///
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "graph/Generators.h"
#include "pregel/Runtime.h"
#include "support/Diagnostics.h"

#include <gtest/gtest.h>

namespace {

using namespace gm;
using namespace gm::pregel;

//===----------------------------------------------------------------------===//
// MessageLayout structure
//===----------------------------------------------------------------------===//

TEST(MessageLayout, SingleTypeStoresNoTag) {
  MessageLayout L;
  L.addType(0, {ValueKind::Double});
  EXPECT_FALSE(L.empty());
  EXPECT_FALSE(L.storesTag());
  EXPECT_EQ(L.recordSize(), 4u + 8u); // dst + one double, no tag
  EXPECT_EQ(L.soleTag(), 0);
  EXPECT_EQ(L.type(0).Offset[0], 4u);
}

TEST(MessageLayout, EmptyPayloadIsHeaderOnly) {
  MessageLayout L;
  L.addType(0, {});
  EXPECT_EQ(L.recordSize(), 4u); // just the destination id
  EXPECT_EQ(L.wireBytes(0), 4u);
}

TEST(MessageLayout, MultiTypeAddsTagAndPadsToWidest) {
  MessageLayout L;
  L.addType(1, {ValueKind::Int});
  EXPECT_FALSE(L.storesTag());
  EXPECT_EQ(L.recordSize(), 4u + 8u);
  // A second type grows the header; offsets must shift.
  L.addType(2, {ValueKind::Int, ValueKind::Bool});
  EXPECT_TRUE(L.storesTag());
  EXPECT_EQ(L.recordSize(), 8u + 9u); // dst + tag + widest payload (8+1)
  EXPECT_EQ(L.type(1).Offset[0], 8u);
  EXPECT_EQ(L.type(2).Offset[0], 8u);
  EXPECT_EQ(L.type(2).Offset[1], 16u);
  // Wire accounting is per type, not per record: the narrow type does not
  // pay for the widest one's padding.
  EXPECT_EQ(L.wireBytes(1), 4u + 4u + 8u);
  EXPECT_EQ(L.wireBytes(2), 4u + 4u + 9u);
}

TEST(MessageLayout, PackRoundTripsThroughMsgRef) {
  MessageLayout L;
  L.addType(1, {ValueKind::Int, ValueKind::Double, ValueKind::Bool});
  L.addType(2, {ValueKind::Int});

  Message M;
  M.Type = 1;
  M.push(Value::makeInt(-42));
  M.push(Value::makeDouble(2.5));
  M.push(Value::makeBool(true));

  std::array<std::byte, MaxPackedRecordBytes> Rec{};
  packMessage(L, Rec.data(), /*Dst=*/7, M);
  EXPECT_EQ(MessageLayout::recordDst(Rec.data()), 7u);

  MsgRef R(Rec.data(), &L);
  EXPECT_EQ(R.type(), 1);
  EXPECT_EQ(R.size(), 3u);
  EXPECT_EQ(R.getInt(0), -42);
  EXPECT_EQ(R.getDouble(1), 2.5);
  EXPECT_TRUE(R.getBool(2));
  // Boxing back through the Value-returning accessor agrees.
  EXPECT_TRUE(R[0] == Value::makeInt(-42));
  EXPECT_TRUE(R[2] == Value::makeBool(true));
}

TEST(MessageLayout, PackRejectsWhatTheLayoutDoesNotDeclare) {
  MessageLayout L;
  L.addType(0, {ValueKind::Double});
  std::array<std::byte, MaxPackedRecordBytes> Rec{};

  Message Undeclared;
  Undeclared.Type = 3;
  Undeclared.push(Value::makeDouble(1.0));
  EXPECT_FALSE(packMessage(L, Rec.data(), 0, Undeclared));
  EXPECT_EQ(schemaMismatch(L, Undeclared),
            "message tag 3 is not declared in the message layout");

  Message Arity;
  Arity.push(Value::makeDouble(1.0));
  Arity.push(Value::makeDouble(2.0));
  EXPECT_FALSE(packMessage(L, Rec.data(), 0, Arity));
  EXPECT_EQ(schemaMismatch(L, Arity),
            "message tag 0 carries 2 payload slot(s) but the layout "
            "declares 1");

  Message Kind;
  Kind.push(Value::makeInt(1));
  EXPECT_FALSE(packMessage(L, Rec.data(), 0, Kind));
  EXPECT_EQ(schemaMismatch(L, Kind), "message tag 0 payload slot 0 has kind "
                                     "'int' but the layout declares 'double'");

  Message Fits;
  Fits.push(Value::makeDouble(1.0));
  EXPECT_TRUE(packMessage(L, Rec.data(), 0, Fits));
  EXPECT_EQ(schemaMismatch(L, Fits), "");
}

TEST(MessageLayout, DerivedFromIRCoversSetupAndMsgTypes) {
  // avg_teen's in-neighbor Count is flipped to out-edge pushes by the
  // canonicalizer, so it derives a single untagged empty-payload type.
  CompileResult Avg = compileGreenMarlFile(std::string(GM_ALGORITHMS_DIR) +
                                           "/avg_teen.gm");
  ASSERT_TRUE(Avg.ok());
  MessageLayout LA = pir::deriveMessageLayout(*Avg.Program);
  ASSERT_FALSE(LA.empty());
  EXPECT_FALSE(LA.hasType(pir::SetupMsgTag));
  EXPECT_TRUE(LA.hasType(pir::MsgTagOffset));
  EXPECT_TRUE(LA.type(pir::MsgTagOffset).Slots.empty());
  EXPECT_FALSE(LA.storesTag());

  // bc_approx genuinely iterates in-neighbors (uses_in_nbrs): tag 0 is the
  // Int sender-id setup broadcast, its three msg types follow at
  // MsgTagOffset — so records store a tag.
  CompileResult Bc = compileGreenMarlFile(std::string(GM_ALGORITHMS_DIR) +
                                          "/bc_approx.gm");
  ASSERT_TRUE(Bc.ok());
  MessageLayout LB = pir::deriveMessageLayout(*Bc.Program);
  ASSERT_FALSE(LB.empty());
  EXPECT_TRUE(LB.hasType(pir::SetupMsgTag));
  EXPECT_EQ(LB.type(pir::SetupMsgTag).Slots.size(), 1u);
  ASSERT_EQ(Bc.Program->MsgTypes.size(), 3u);
  for (size_t I = 0; I < Bc.Program->MsgTypes.size(); ++I)
    EXPECT_TRUE(LB.hasType(static_cast<int32_t>(I) + pir::MsgTagOffset));
  // m2_w_to_v carries two doubles; the widest payload sizes the record.
  EXPECT_EQ(LB.type(2 + pir::MsgTagOffset).Slots.size(), 2u);
  EXPECT_TRUE(LB.storesTag());
}

//===----------------------------------------------------------------------===//
// Send-time layout check
//===----------------------------------------------------------------------===//

TEST(PackedMessage, UndeclaredSendsAreDroppedAndReported) {
  // A program whose (empty) layout declares nothing it sends: every send
  // fails the send-time check, nothing reaches a mailbox, and each worker
  // reports its first drift — sequential and threaded alike.
  class Undeclared : public VertexProgram {
  public:
    void init(const Graph &, MasterContext &) override {}
    void masterCompute(MasterContext &Master) override {
      if (Master.superstep() >= 2)
        Master.haltAll();
    }
    void compute(VertexContext &Ctx) override {
      Message M;
      M.push(Value::makeInt(1));
      Ctx.sendToAllOutNeighbors(M);
      Ctx.sendTo(0, M);
    }
    MessageLayout messageLayout() const override { return MessageLayout(); }
  };
  Graph G = generateRMAT(1 << 8, 1 << 10, 27);
  for (bool Threaded : {false, true}) {
    DiagnosticEngine Diags;
    Config Cfg;
    Cfg.NumWorkers = 3;
    Cfg.Threaded = Threaded;
    Cfg.Diags = &Diags;
    Undeclared P;
    RunStats Stats = Engine(G, Cfg).run(P);
    const std::string What = Threaded ? "threaded" : "sequential";
    EXPECT_EQ(Stats.TotalMessages, 0u) << What;
    ASSERT_EQ(Diags.diagnostics().size(), 3u) << What << ": " << Diags.dump();
    for (const Diagnostic &D : Diags.diagnostics())
      EXPECT_EQ(D.Message, "message layout drift: message tag 0 is not "
                           "declared in the message layout")
          << What;
  }
}

} // namespace
