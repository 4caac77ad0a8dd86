#include "host/executor.hh"

#include <cmath>
#include <cstring>

#include "common/fpu.hh"
#include "common/logging.hh"

namespace darco::host {

namespace {

/** x86-style truncation with clamp-to-indefinite (matches guest). */
uint32_t
truncToInt32(double d)
{
    if (std::isnan(d) || d >= 2147483648.0 || d < -2147483648.0)
        return 0x80000000u;
    return static_cast<uint32_t>(static_cast<int32_t>(d));
}

Executor::StopReason
reasonFor(uint32_t svc_addr)
{
    switch (svc_addr) {
      case amap::kSvcDispatch: return Executor::StopReason::Dispatch;
      case amap::kSvcIbtcMiss: return Executor::StopReason::IbtcMiss;
      case amap::kSvcPromote:  return Executor::StopReason::Promote;
      case amap::kSvcHalt:     return Executor::StopReason::Halt;
      default:
        panic("jump to unknown service address 0x%08x", svc_addr);
    }
}

} // namespace

Executor::Stop
Executor::run(uint32_t pc, uint64_t guest_budget)
{
    lastRetired = 0;
    // flushRecords() zeroes the cap when cancellation is requested;
    // the boundary check below reads the cap, not the parameter.
    budgetCap = guest_budget;

    CodeRegion *region = store.find(pc);
    panic_if(!region, "executor entry at 0x%08x is not translated code", pc);
    region->execCount++;
    if (region->kind == RegionKind::Superblock)
        ++sbEntries;
    else
        ++bbEntries;

    // Guard against translations that loop without retiring guest
    // instructions (a translator bug, not a workload property).
    uint64_t since_boundary = 0;
    constexpr uint64_t kBoundaryGuard = 1u << 20;

    while (true) {
        const uint32_t idx = (pc - region->hostBase) / kHostInstBytes;
        panic_if(idx >= region->insts.size(),
                 "executor ran off region at 0x%08x", pc);
        const HostInst &inst = region->insts[idx];

        if (++since_boundary > kBoundaryGuard) {
            panic("translated code at 0x%08x loops without guest progress",
                  pc);
        }

        ++hostCount;

        // All static Record fields come from the region's install-time
        // template; only memAddr / taken / branchTarget are dynamic.
        timing::Record &rec = nextRecord();
        rec = region->recTemplates[idx];

        uint32_t next_pc = pc + kHostInstBytes;
        const uint32_t a = inst.rs1 == kNoReg ? 0 : readReg(inst.rs1);
        const uint32_t b = inst.rs2 == kNoReg ? 0 : readReg(inst.rs2);
        const int32_t imm32 = static_cast<int32_t>(inst.imm);

        switch (inst.op) {
          case HOp::ADD:  writeReg(inst.rd, a + b); break;
          case HOp::SUB:  writeReg(inst.rd, a - b); break;
          case HOp::AND:  writeReg(inst.rd, a & b); break;
          case HOp::OR:   writeReg(inst.rd, a | b); break;
          case HOp::XOR:  writeReg(inst.rd, a ^ b); break;
          case HOp::SLL:  writeReg(inst.rd, a << (b & 31)); break;
          case HOp::SRL:  writeReg(inst.rd, a >> (b & 31)); break;
          case HOp::SRA:
            writeReg(inst.rd, static_cast<uint32_t>(
                static_cast<int32_t>(a) >> (b & 31)));
            break;
          case HOp::SLT:
            writeReg(inst.rd, static_cast<int32_t>(a) <
                              static_cast<int32_t>(b));
            break;
          case HOp::SLTU: writeReg(inst.rd, a < b); break;
          case HOp::MUL:
            writeReg(inst.rd, static_cast<uint32_t>(
                static_cast<int64_t>(static_cast<int32_t>(a)) *
                static_cast<int64_t>(static_cast<int32_t>(b))));
            break;
          case HOp::MULH:
            writeReg(inst.rd, static_cast<uint32_t>(
                (static_cast<int64_t>(static_cast<int32_t>(a)) *
                 static_cast<int64_t>(static_cast<int32_t>(b))) >> 32));
            break;
          case HOp::DIV: {
            // Guest-support semantics: total function (deviations §5).
            const int32_t sa = static_cast<int32_t>(a);
            const int32_t sb = static_cast<int32_t>(b);
            if (sb == 0 || (sa == INT32_MIN && sb == -1))
                writeReg(inst.rd, 0);
            else
                writeReg(inst.rd, static_cast<uint32_t>(sa / sb));
            break;
          }
          case HOp::REM: {
            const int32_t sa = static_cast<int32_t>(a);
            const int32_t sb = static_cast<int32_t>(b);
            if (sb == 0 || (sa == INT32_MIN && sb == -1))
                writeReg(inst.rd, a);
            else
                writeReg(inst.rd, static_cast<uint32_t>(sa % sb));
            break;
          }
          case HOp::ADDI:  writeReg(inst.rd, a + static_cast<uint32_t>(imm32)); break;
          case HOp::ANDI:  writeReg(inst.rd, a & static_cast<uint32_t>(imm32)); break;
          case HOp::ORI:   writeReg(inst.rd, a | static_cast<uint32_t>(imm32)); break;
          case HOp::XORI:  writeReg(inst.rd, a ^ static_cast<uint32_t>(imm32)); break;
          case HOp::SLLI:  writeReg(inst.rd, a << (imm32 & 31)); break;
          case HOp::SRLI:  writeReg(inst.rd, a >> (imm32 & 31)); break;
          case HOp::SRAI:
            writeReg(inst.rd, static_cast<uint32_t>(
                static_cast<int32_t>(a) >> (imm32 & 31)));
            break;
          case HOp::SLTI:
            writeReg(inst.rd, static_cast<int32_t>(a) < imm32);
            break;
          case HOp::SLTUI:
            writeReg(inst.rd, a < static_cast<uint32_t>(imm32));
            break;
          case HOp::LUI:   writeReg(inst.rd, static_cast<uint32_t>(imm32)); break;

          case HOp::LD: {
            const uint32_t addr = a + static_cast<uint32_t>(imm32);
            rec.memAddr = addr;
            writeReg(inst.rd, static_cast<uint32_t>(
                mem.load(addr, inst.size)));
            break;
          }
          case HOp::ST: {
            const uint32_t addr = a + static_cast<uint32_t>(imm32);
            rec.memAddr = addr;
            mem.store(addr, b, inst.size);
            break;
          }
          case HOp::FLD: {
            const uint32_t addr = a + static_cast<uint32_t>(imm32);
            rec.memAddr = addr;
            f[inst.rd] = mem.loadDouble(addr);
            break;
          }
          case HOp::FST: {
            const uint32_t addr = a + static_cast<uint32_t>(imm32);
            rec.memAddr = addr;
            mem.storeDouble(addr, f[inst.rs2]);
            break;
          }

          case HOp::BEQ:
            if (a == b) { next_pc = static_cast<uint32_t>(inst.imm); rec.taken = true; }
            break;
          case HOp::BNE:
            if (a != b) { next_pc = static_cast<uint32_t>(inst.imm); rec.taken = true; }
            break;
          case HOp::BLT:
            if (static_cast<int32_t>(a) < static_cast<int32_t>(b)) {
                next_pc = static_cast<uint32_t>(inst.imm);
                rec.taken = true;
            }
            break;
          case HOp::BGE:
            if (static_cast<int32_t>(a) >= static_cast<int32_t>(b)) {
                next_pc = static_cast<uint32_t>(inst.imm);
                rec.taken = true;
            }
            break;
          case HOp::BLTU:
            if (a < b) { next_pc = static_cast<uint32_t>(inst.imm); rec.taken = true; }
            break;
          case HOp::BGEU:
            if (a >= b) { next_pc = static_cast<uint32_t>(inst.imm); rec.taken = true; }
            break;
          case HOp::JAL:
            writeReg(inst.rd, next_pc);
            next_pc = static_cast<uint32_t>(inst.imm);
            rec.taken = true;
            break;
          case HOp::JALR: {
            const uint32_t target = a + static_cast<uint32_t>(imm32);
            writeReg(inst.rd, next_pc);
            next_pc = target;
            rec.taken = true;
            break;
          }

          case HOp::FADD:
            f[inst.rd] = canonFp(f[inst.rs1] + f[inst.rs2]);
            break;
          case HOp::FSUB:
            f[inst.rd] = canonFp(f[inst.rs1] - f[inst.rs2]);
            break;
          case HOp::FMUL:
            f[inst.rd] = canonFp(f[inst.rs1] * f[inst.rs2]);
            break;
          case HOp::FDIV:
            f[inst.rd] = canonFp(f[inst.rs1] / f[inst.rs2]);
            break;
          case HOp::FSQRT:
            f[inst.rd] = canonFp(std::sqrt(f[inst.rs1]));
            break;
          case HOp::FABS: f[inst.rd] = std::fabs(f[inst.rs1]); break;
          case HOp::FNEG: f[inst.rd] = -f[inst.rs1]; break;
          case HOp::FMOV: f[inst.rd] = f[inst.rs1]; break;
          case HOp::FCVT_IF:
            f[inst.rd] = static_cast<double>(static_cast<int32_t>(a));
            break;
          case HOp::FCVT_FI:
            writeReg(inst.rd, truncToInt32(f[inst.rs1]));
            break;
          case HOp::FLT:
            writeReg(inst.rd, f[inst.rs1] < f[inst.rs2]);
            break;
          case HOp::FLE:
            writeReg(inst.rd, f[inst.rs1] <= f[inst.rs2]);
            break;
          case HOp::FEQ:
            writeReg(inst.rd, f[inst.rs1] == f[inst.rs2]);
            break;
          case HOp::FUNORD:
            writeReg(inst.rd, std::isnan(f[inst.rs1]) ||
                              std::isnan(f[inst.rs2]));
            break;

          case HOp::NOP: break;

          default:
            panic("executor: unhandled host op %d",
                  static_cast<int>(inst.op));
        }

        rec.branchTarget = rec.taken ? next_pc : 0;

        // Region-leaving transfers carry the guest retirement count
        // for the path just completed (see host/isa.hh).
        if (inst.guestBoundary) {
            lastRetired += inst.guestIndex;
            since_boundary = 0;
            if (region->kind == RegionKind::Superblock)
                sbRetired += inst.guestIndex;
            else
                bbRetired += inst.guestIndex;
            // Inline-IBTC hits retire the guest indirect branch here.
            if (inst.op == HOp::JALR)
                ++indirectCount;
        }

        if (next_pc == pc + kHostInstBytes && !rec.taken) {
            pc = next_pc;
            continue;
        }

        // Control transfer: service, same region, or another region.
        if (amap::isServiceAddr(next_pc)) {
            flushRecords();
            return Stop{reasonFor(next_pc), region, x[hreg::ExitId], 0};
        }
        pc = next_pc;
        if (pc < region->hostBase || pc >= region->hostLimit()) {
            region = store.find(pc);
            panic_if(!region,
                     "translated code jumped to unmapped host pc 0x%08x",
                     pc);
            region->execCount++;
            if (region->kind == RegionKind::Superblock)
                ++sbEntries;
            else
                ++bbEntries;
        }
        // Retiring transfers always land on a region entry, so this
        // is a clean architectural point to stop at (covers regions
        // chained to themselves as well).
        if (inst.guestBoundary && lastRetired >= budgetCap) {
            flushRecords();
            return Stop{StopReason::Budget, region, 0,
                        region->guestEntry};
        }
    }
}

} // namespace darco::host
